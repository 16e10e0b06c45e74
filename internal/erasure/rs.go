package erasure

import (
	"errors"
	"fmt"
)

// ErrTooFewShards is returned by Reconstruct when fewer than DataShards
// shards survive.
var ErrTooFewShards = errors.New("erasure: too few shards to reconstruct")

// Code is a systematic Reed–Solomon erasure code with a fixed geometry.
// It is safe for concurrent use after construction (all methods only read
// the code's state).
type Code struct {
	dataShards   int
	parityShards int
	// matrix is the (data+parity)×data systematic encoding matrix.
	matrix *gfMatrix
}

// New constructs a code with the given numbers of data and parity shards.
// The total must not exceed 256 (the field size limits distinct evaluation
// points).
func New(dataShards, parityShards int) (*Code, error) {
	switch {
	case dataShards < 1:
		return nil, fmt.Errorf("erasure: data shards %d must be >= 1", dataShards)
	case parityShards < 1:
		return nil, fmt.Errorf("erasure: parity shards %d must be >= 1", parityShards)
	case dataShards+parityShards > 256:
		return nil, fmt.Errorf("erasure: %d total shards exceed GF(256) limit", dataShards+parityShards)
	}
	return &Code{
		dataShards:   dataShards,
		parityShards: parityShards,
		matrix:       vandermonde(dataShards, parityShards),
	}, nil
}

// DataShards returns the number of data shards.
func (c *Code) DataShards() int { return c.dataShards }

// TotalShards returns the data plus parity shard count.
func (c *Code) TotalShards() int { return c.dataShards + c.parityShards }

// checkShards validates the shard slice geometry. When withData is true the
// data shards must all be present and equally sized; otherwise sizes are
// inferred from any non-nil shard.
func (c *Code) checkShards(shards [][]byte) (int, error) {
	if len(shards) != c.TotalShards() {
		return 0, fmt.Errorf("erasure: got %d shards, want %d", len(shards), c.TotalShards())
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size < 0 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("erasure: shard %d has %d bytes, want %d", i, len(s), size)
		}
	}
	if size <= 0 {
		return 0, errors.New("erasure: no non-empty shards")
	}
	return size, nil
}

// Encode fills the parity shards from the data shards. shards must hold
// TotalShards() equal-length slices; the first DataShards() are inputs and
// the rest are overwritten.
func (c *Code) Encode(shards [][]byte) error {
	size, err := c.checkShards(shards)
	if err != nil {
		return err
	}
	for i := 0; i < c.dataShards; i++ {
		if shards[i] == nil {
			return fmt.Errorf("erasure: data shard %d is nil", i)
		}
	}
	for p := 0; p < c.parityShards; p++ {
		out := shards[c.dataShards+p]
		if out == nil {
			return fmt.Errorf("erasure: parity shard %d is nil", c.dataShards+p)
		}
		row := c.matrix.row(c.dataShards + p)
		clear(out[:size])
		for d := 0; d < c.dataShards; d++ {
			mulSlice(row[d], shards[d], out)
		}
	}
	return nil
}

// Reconstruct regenerates every nil shard in place, reading any
// DataShards() surviving shards. It returns ErrTooFewShards if fewer
// survive.
func (c *Code) Reconstruct(shards [][]byte) error {
	size, err := c.checkShards(shards)
	if err != nil {
		return err
	}
	present := make([]int, 0, c.TotalShards())
	missing := make([]int, 0, c.parityShards)
	for i, s := range shards {
		if s != nil {
			present = append(present, i)
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(present) < c.dataShards {
		return fmt.Errorf("%w: %d of %d", ErrTooFewShards, len(present), c.dataShards)
	}
	// Invert the rows of the surviving shards (any dataShards of them).
	sources := present[:c.dataShards]
	sub := c.matrix.subMatrixRows(sources)
	inv, err := sub.invert()
	if err != nil {
		return fmt.Errorf("erasure: reconstruction matrix: %w", err)
	}
	// Recover each missing data shard: row of inv applied to sources.
	// Missing parity shards are then re-encoded from the (restored) data.
	for _, m := range missing {
		shards[m] = make([]byte, size)
		if m >= c.dataShards {
			continue // parity handled below, after data is whole
		}
		for si, src := range sources {
			mulSlice(inv.at(m, si), shards[src], shards[m])
		}
	}
	for _, m := range missing {
		if m < c.dataShards {
			continue
		}
		row := c.matrix.row(m)
		for d := 0; d < c.dataShards; d++ {
			mulSlice(row[d], shards[d], shards[m])
		}
	}
	return nil
}

// Split slices data into DataShards() equal shards, zero-padding the tail,
// and returns the shards plus the padded shard size.
func (c *Code) Split(data []byte) ([][]byte, int) {
	shardSize := (len(data) + c.dataShards - 1) / c.dataShards
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, c.TotalShards())
	for i := 0; i < c.dataShards; i++ {
		shards[i] = make([]byte, shardSize)
		start := i * shardSize
		if start < len(data) {
			copy(shards[i], data[start:])
		}
	}
	for i := c.dataShards; i < c.TotalShards(); i++ {
		shards[i] = make([]byte, shardSize)
	}
	return shards, shardSize
}

// Join concatenates the data shards and trims to length n.
func (c *Code) Join(shards [][]byte, n int) ([]byte, error) {
	if len(shards) < c.dataShards {
		return nil, fmt.Errorf("erasure: Join needs %d data shards, got %d", c.dataShards, len(shards))
	}
	out := make([]byte, 0, n)
	for i := 0; i < c.dataShards && len(out) < n; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("erasure: data shard %d missing; Reconstruct first", i)
		}
		out = append(out, shards[i]...)
	}
	if len(out) < n {
		return nil, fmt.Errorf("erasure: shards hold %d bytes, want %d", len(out), n)
	}
	return out[:n], nil
}
