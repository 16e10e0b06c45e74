package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCode(t *testing.T, data, parity int) *Code {
	t.Helper()
	c, err := New(data, parity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randomShards(rng *rand.Rand, c *Code, size int) [][]byte {
	shards := make([][]byte, c.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, size)
		if i < c.DataShards() {
			rng.Read(shards[i])
		}
	}
	return shards
}

func TestNewValidation(t *testing.T) {
	cases := []struct{ d, p int }{{0, 1}, {1, 0}, {-1, 2}, {200, 100}}
	for _, c := range cases {
		if _, err := New(c.d, c.p); err == nil {
			t.Errorf("New(%d,%d) succeeded", c.d, c.p)
		}
	}
	if _, err := New(255, 1); err != nil {
		t.Errorf("New(255,1) = %v, want success at the boundary", err)
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// The paper's geometry: R = 8 nodes per redundancy set, fault
	// tolerance up to 3 → 5 data + 3 parity. Erase every subset of size
	// <= parity and reconstruct.
	const data, parity = 5, 3
	c := mustCode(t, data, parity)
	rng := rand.New(rand.NewSource(2))
	orig := randomShards(rng, c, 256)
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	total := c.TotalShards()
	for mask := 1; mask < 1<<total; mask++ {
		erased := 0
		for i := 0; i < total; i++ {
			if mask>>i&1 == 1 {
				erased++
			}
		}
		if erased > parity {
			continue
		}
		shards := make([][]byte, total)
		for i := range shards {
			if mask>>i&1 == 0 {
				shards[i] = bytes.Clone(orig[i])
			}
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("mask %b: shard %d mismatch", mask, i)
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c := mustCode(t, 4, 2)
	rng := rand.New(rand.NewSource(3))
	shards := randomShards(rng, c, 64)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	// Erase 3 shards (> parity).
	shards[0], shards[2], shards[5] = nil, nil, nil
	err := c.Reconstruct(shards)
	if !errors.Is(err, ErrTooFewShards) {
		t.Errorf("err = %v, want ErrTooFewShards", err)
	}
}

func TestReconstructNoErasuresNoop(t *testing.T) {
	c := mustCode(t, 3, 2)
	rng := rand.New(rand.NewSource(4))
	shards := randomShards(rng, c, 32)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(shards))
	for i, s := range shards {
		before[i] = bytes.Clone(s)
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], before[i]) {
			t.Errorf("shard %d changed", i)
		}
	}
}

func TestEncodeShardGeometryErrors(t *testing.T) {
	c := mustCode(t, 3, 2)
	if err := c.Encode(make([][]byte, 4)); err == nil {
		t.Error("wrong shard count accepted")
	}
	shards := [][]byte{make([]byte, 8), make([]byte, 9), make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	if err := c.Encode(shards); err == nil {
		t.Error("ragged shards accepted")
	}
	shards = [][]byte{make([]byte, 8), nil, make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	if err := c.Encode(shards); err == nil {
		t.Error("nil data shard accepted")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(1+rng.Intn(10), 1+rng.Intn(4))
		if err != nil {
			return false
		}
		n := rng.Intn(1000)
		data := make([]byte, n)
		rng.Read(data)
		shards, _ := c.Split(data)
		if err := c.Encode(shards); err != nil {
			return false
		}
		// Drop up to parity shards, reconstruct, re-join.
		drops := rng.Intn(c.TotalShards() - c.DataShards() + 1)
		for i := 0; i < drops; i++ {
			shards[rng.Intn(c.TotalShards())] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		got, err := c.Join(shards, n)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJoinErrors(t *testing.T) {
	c := mustCode(t, 3, 1)
	if _, err := c.Join(make([][]byte, 2), 10); err == nil {
		t.Error("short shard slice accepted")
	}
	shards, _ := c.Split([]byte("hello world"))
	shards[1] = nil
	if _, err := c.Join(shards, 11); err == nil {
		t.Error("missing data shard accepted")
	}
	shards2, _ := c.Split([]byte("xy"))
	if _, err := c.Join(shards2, 500); err == nil {
		t.Error("over-long join accepted")
	}
}

func TestSplitEmptyData(t *testing.T) {
	c := mustCode(t, 4, 2)
	shards, size := c.Split(nil)
	if size != 1 {
		t.Errorf("size = %d, want 1 (minimum shard)", size)
	}
	if err := c.Encode(shards); err != nil {
		t.Errorf("Encode on minimal shards: %v", err)
	}
}

// Systematic property: the first DataShards() shards are the data itself.
func TestSystematic(t *testing.T) {
	c := mustCode(t, 4, 2)
	data := []byte("0123456789abcdef") // 16 bytes = 4 shards of 4
	shards, _ := c.Split(data)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !bytes.Equal(shards[i], data[i*4:(i+1)*4]) {
			t.Errorf("shard %d is not the plain data", i)
		}
	}
}

func TestVandermondeAllSquareSubmatricesInvertible(t *testing.T) {
	// The defining property of the systematic construction: any
	// dataShards rows of the encoding matrix form an invertible matrix
	// (so ANY dataShards surviving shards can reconstruct).
	const data, parity = 4, 3
	m := vandermonde(data, parity)
	total := data + parity
	var rows []int
	var recurse func(start int)
	recurse = func(start int) {
		if len(rows) == data {
			sub := m.subMatrixRows(rows)
			if _, err := sub.invert(); err != nil {
				t.Errorf("rows %v not invertible: %v", rows, err)
			}
			return
		}
		for r := start; r < total; r++ {
			rows = append(rows, r)
			recurse(r + 1)
			rows = rows[:len(rows)-1]
		}
	}
	recurse(0)
}

func TestGFMatrixInvertSingular(t *testing.T) {
	m := newGFMatrix(2, 2)
	m.set(0, 0, 1)
	m.set(0, 1, 1)
	m.set(1, 0, 1)
	m.set(1, 1, 1)
	if _, err := m.invert(); err == nil {
		t.Error("singular matrix inverted")
	}
	r := newGFMatrix(2, 3)
	if _, err := r.invert(); err == nil {
		t.Error("non-square matrix inverted")
	}
}
