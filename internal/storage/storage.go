// Package storage simulates the paper's brick-based distributed store:
// N sealed nodes of d drives each, objects striped as redundancy sets of R
// elements (R-t data + t parity, one element per node), even data and spare
// distribution, and a fail-in-place service model — failed drives and nodes
// are never replaced; their data is rebuilt into the surviving nodes' spare
// capacity using the erasure code.
//
// The package makes the reliability models' rebuild flows executable: the
// simulator and examples fail components, run distributed rebuilds, and
// verify that objects remain readable exactly when the models say they
// should.
package storage

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/erasure"
)

// Common error conditions.
var (
	// ErrObjectLost is returned when more shards are missing than the
	// code can tolerate.
	ErrObjectLost = errors.New("storage: object lost")
	// ErrNoSpare is returned when a rebuild cannot find spare capacity on
	// an eligible node.
	ErrNoSpare = errors.New("storage: no spare capacity available")
	// ErrNotFound is returned for unknown object IDs.
	ErrNotFound = errors.New("storage: object not found")
)

// Config fixes a system's geometry.
type Config struct {
	// Nodes is N, DrivesPerNode is d.
	Nodes, DrivesPerNode int
	// RedundancySetSize is R, FaultTolerance is t (parity elements per
	// set). Each set spans R distinct nodes, one drive per node.
	RedundancySetSize, FaultTolerance int
	// DriveCapacityBytes bounds each drive's stored bytes.
	DriveCapacityBytes int64
}

// Validate reports the first geometric problem.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("storage: need at least 2 nodes, got %d", c.Nodes)
	case c.DrivesPerNode < 1:
		return fmt.Errorf("storage: need at least 1 drive per node, got %d", c.DrivesPerNode)
	case c.RedundancySetSize < 2 || c.RedundancySetSize > c.Nodes:
		return fmt.Errorf("storage: redundancy set size %d invalid for %d nodes", c.RedundancySetSize, c.Nodes)
	case c.FaultTolerance < 1 || c.FaultTolerance >= c.RedundancySetSize:
		return fmt.Errorf("storage: fault tolerance %d invalid for set size %d", c.FaultTolerance, c.RedundancySetSize)
	case c.DriveCapacityBytes < 1:
		return fmt.Errorf("storage: drive capacity %d must be positive", c.DriveCapacityBytes)
	}
	return nil
}

// location addresses one stored shard.
type location struct {
	node, drive int
}

// object tracks one stored object's stripe.
type object struct {
	size      int // original byte length
	shardSize int
	locs      []location // index = shard number (0..R-1)
	shards    [][]byte   // the stored bytes, indexed like locs
	sums      []uint64   // per-shard checksums for latent-fault detection
}

// drive is one disk inside a node.
type drive struct {
	failed bool
	used   int64
}

// node is one sealed brick.
type node struct {
	failed bool
	drives []drive
}

// System is an in-memory simulation of the brick store. It is safe for
// concurrent use.
type System struct {
	mu      sync.Mutex
	cfg     Config
	code    *erasure.Code
	nodes   []node
	objects map[string]*object
	// lost records object IDs that became unrecoverable.
	lost map[string]bool
	// metrics is nil unless SetMetrics attached a bundle.
	metrics *Metrics
}

// NewSystem builds an empty system.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	code, err := erasure.New(cfg.RedundancySetSize-cfg.FaultTolerance, cfg.FaultTolerance)
	if err != nil {
		return nil, err
	}
	nodes := make([]node, cfg.Nodes)
	for i := range nodes {
		nodes[i].drives = make([]drive, cfg.DrivesPerNode)
	}
	return &System{
		cfg:     cfg,
		code:    code,
		nodes:   nodes,
		objects: make(map[string]*object),
		lost:    make(map[string]bool),
	}, nil
}

// Config returns the system's geometry.
func (s *System) Config() Config { return s.cfg }

// redundancySet deterministically selects R distinct *live* nodes for an
// object, spreading sets evenly across the node set (rendezvous-style:
// nodes ranked by a per-object hash). Fail-in-place means dead nodes are
// simply no longer placement candidates. It returns nil if fewer than R
// nodes are live.
func (s *System) redundancySet(id string) []int {
	type ranked struct {
		score uint64
		node  int
	}
	rank := make([]ranked, 0, len(s.nodes))
	for i := range s.nodes {
		if s.nodes[i].failed {
			continue
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", id, i)
		rank = append(rank, ranked{score: h.Sum64(), node: i})
	}
	r := s.cfg.RedundancySetSize
	if len(rank) < r {
		return nil
	}
	// Partial selection sort for the top R scores.
	for i := 0; i < r; i++ {
		best := i
		for j := i + 1; j < len(rank); j++ {
			if rank[j].score > rank[best].score {
				best = j
			}
		}
		rank[i], rank[best] = rank[best], rank[i]
	}
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = rank[i].node
	}
	return out
}

// pickDrive returns the least-used live drive on the node with room for
// size bytes, or -1.
func (s *System) pickDrive(n int, size int64) int {
	best, bestUsed := -1, int64(0)
	for i := range s.nodes[n].drives {
		d := &s.nodes[n].drives[i]
		if d.failed || d.used+size > s.cfg.DriveCapacityBytes {
			continue
		}
		if best < 0 || d.used < bestUsed {
			best, bestUsed = i, d.used
		}
	}
	return best
}

// Put stores data under id, striping it across one redundancy set.
// It fails if any chosen node cannot host a shard.
func (s *System) Put(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[id]; ok {
		return fmt.Errorf("storage: object %q already exists", id)
	}
	shards, shardSize := s.code.Split(data)
	if err := s.code.Encode(shards); err != nil {
		return err
	}
	set := s.redundancySet(id)
	if set == nil {
		live := 0
		for i := range s.nodes {
			if !s.nodes[i].failed {
				live++
			}
		}
		return fmt.Errorf("storage: only %d live nodes, need %d for a redundancy set; add capacity",
			live, s.cfg.RedundancySetSize)
	}
	locs := make([]location, len(set))
	for i, n := range set {
		dr := s.pickDrive(n, int64(shardSize))
		if dr < 0 {
			return fmt.Errorf("%w: node %d for object %q", ErrNoSpare, n, id)
		}
		locs[i] = location{node: n, drive: dr}
		s.nodes[n].drives[dr].used += int64(shardSize)
	}
	sums := make([]uint64, len(shards))
	for i, shard := range shards {
		sums[i] = checksum(shard)
	}
	s.objects[id] = &object{size: len(data), shardSize: shardSize, locs: locs, shards: shards, sums: sums}
	return nil
}

// Get reads the object back, reconstructing through the erasure code when
// shards are unavailable. It returns ErrObjectLost (wrapped) if too few
// shards survive, and ErrNotFound for unknown IDs.
func (s *System) Get(id string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	avail := make([][]byte, len(obj.shards))
	missing := 0
	for i := range obj.locs {
		// Checksum mismatches (latent faults) are erasures too.
		if s.shardIntact(obj, i) {
			avail[i] = obj.shards[i]
		} else {
			missing++
		}
	}
	if missing > 0 {
		if missing > s.cfg.FaultTolerance {
			return nil, fmt.Errorf("%w: %q missing %d shards", ErrObjectLost, id, missing)
		}
		if err := s.code.Reconstruct(avail); err != nil {
			return nil, err
		}
	}
	return s.code.Join(avail, obj.size)
}

// shardAlive reports whether shard i of obj is on a live node and drive.
func (s *System) shardAlive(obj *object, i int) bool {
	loc := obj.locs[i]
	n := &s.nodes[loc.node]
	return !n.failed && !n.drives[loc.drive].failed
}

// FailNode marks a node failed (fail-in-place: permanent).
func (s *System) FailNode(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 || n >= len(s.nodes) {
		return fmt.Errorf("storage: node %d out of range", n)
	}
	s.nodes[n].failed = true
	if s.metrics != nil {
		s.metrics.NodeFailures.Inc()
	}
	return nil
}

// FailDrive marks one drive failed (permanent).
func (s *System) FailDrive(n, d int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 || n >= len(s.nodes) {
		return fmt.Errorf("storage: node %d out of range", n)
	}
	if d < 0 || d >= len(s.nodes[n].drives) {
		return fmt.Errorf("storage: drive %d out of range on node %d", d, n)
	}
	s.nodes[n].drives[d].failed = true
	if s.metrics != nil {
		s.metrics.DriveFailures.Inc()
	}
	return nil
}

// RebuildStats summarizes one rebuild pass.
type RebuildStats struct {
	// ShardsRebuilt counts shards regenerated onto spare capacity.
	ShardsRebuilt int
	// BytesMoved counts reconstructed bytes written.
	BytesMoved int64
	// ObjectsLost counts objects that could not be recovered.
	ObjectsLost int
}

// sortedObjectIDs returns every object ID in lexicographic order. Passes
// that range over the object map (rebuild, scrub) must use it: map
// iteration order is randomized, and these passes make order-dependent
// choices (which object claims scarce spare capacity), so raw map
// ranging would make replay outcomes vary run to run. Callers hold s.mu.
func (s *System) sortedObjectIDs() []string {
	ids := make([]string, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Rebuild regenerates every shard that is currently unreadable, placing
// each on a live node outside the object's current node set (even spare
// distribution), one drive per node per object. Unrecoverable objects are
// recorded and counted but do not abort the pass.
func (s *System) Rebuild() (RebuildStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var stats RebuildStats
	defer func() {
		if s.metrics != nil {
			s.metrics.Rebuilds.Inc()
			s.metrics.ShardsRebuilt.Add(int64(stats.ShardsRebuilt))
			s.metrics.RebuildBytes.Add(stats.BytesMoved)
			s.metrics.RebuildObjectsLost.Add(int64(stats.ObjectsLost))
		}
	}()
	// Sorted ID order: rebuild passes compete for spare capacity, so map
	// iteration order would make which object wins the last spare — and
	// therefore the loss tally — vary run to run.
	for _, id := range s.sortedObjectIDs() {
		obj := s.objects[id]
		if s.lost[id] {
			continue
		}
		var missing []int
		inSet := make(map[int]bool, len(obj.locs))
		for i := range obj.locs {
			if s.shardIntact(obj, i) {
				inSet[obj.locs[i].node] = true
			} else {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			continue
		}
		if len(missing) > s.cfg.FaultTolerance {
			s.lost[id] = true
			stats.ObjectsLost++
			continue
		}
		// Reconstruct the content.
		work := make([][]byte, len(obj.shards))
		for i := range obj.shards {
			if s.shardIntact(obj, i) {
				work[i] = obj.shards[i]
			}
		}
		if err := s.code.Reconstruct(work); err != nil {
			return stats, fmt.Errorf("storage: rebuilding %q: %w", id, err)
		}
		// Re-place each missing shard on a fresh node.
		for _, i := range missing {
			target := s.findSpareNode(inSet, int64(obj.shardSize))
			if target.node < 0 {
				return stats, fmt.Errorf("%w: rebuilding %q", ErrNoSpare, id)
			}
			inSet[target.node] = true
			s.nodes[target.node].drives[target.drive].used += int64(obj.shardSize)
			obj.locs[i] = target
			obj.shards[i] = work[i]
			stats.ShardsRebuilt++
			stats.BytesMoved += int64(obj.shardSize)
		}
	}
	return stats, nil
}

// findSpareNode picks the live node (not in the exclusion set) whose total
// used fraction is lowest and that has a drive with room, mirroring even
// spare consumption.
func (s *System) findSpareNode(exclude map[int]bool, size int64) location {
	bestNode, bestDrive := -1, -1
	var bestUsed int64
	for n := range s.nodes {
		if exclude[n] || s.nodes[n].failed {
			continue
		}
		d := s.pickDrive(n, size)
		if d < 0 {
			continue
		}
		var used int64
		for i := range s.nodes[n].drives {
			used += s.nodes[n].drives[i].used
		}
		if bestNode < 0 || used < bestUsed {
			bestNode, bestDrive, bestUsed = n, d, used
		}
	}
	return location{node: bestNode, drive: bestDrive}
}

// Stats reports occupancy and health.
type Stats struct {
	Objects, LostObjects     int
	LiveNodes, FailedNodes   int
	LiveDrives, FailedDrives int
	UsedBytes, SpareBytes    int64
}

// Stats returns a snapshot of the system.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	st.Objects = len(s.objects)
	st.LostObjects = len(s.lost)
	for n := range s.nodes {
		if s.nodes[n].failed {
			st.FailedNodes++
			continue
		}
		st.LiveNodes++
		for d := range s.nodes[n].drives {
			dr := &s.nodes[n].drives[d]
			if dr.failed {
				st.FailedDrives++
				continue
			}
			st.LiveDrives++
			st.UsedBytes += dr.used
			st.SpareBytes += s.cfg.DriveCapacityBytes - dr.used
		}
	}
	return st
}

// CheckAll verifies every non-lost object is readable and content-correct
// through Get, returning the IDs that fail. Objects already recorded lost
// are skipped.
func (s *System) CheckAll() []string {
	s.mu.Lock()
	ids := make([]string, 0, len(s.objects))
	for id := range s.objects {
		if !s.lost[id] {
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()
	// Sorted so the returned failure list is stable across runs.
	sort.Strings(ids)
	var bad []string
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			bad = append(bad, id)
		}
	}
	return bad
}

// AddNode appends a fresh node with the configured drive count and
// returns its index: the spare-node provisioning of Section 3, when
// fail-in-place attrition pushes utilization past its threshold (see
// internal/spares).
func (s *System) AddNode() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nodes = append(s.nodes, node{drives: make([]drive, s.cfg.DrivesPerNode)})
	s.cfg.Nodes = len(s.nodes)
	return len(s.nodes) - 1
}
