// Package plan answers the paper's §3–4 design question — where do
// redundancy dollars go? — as a constrained search instead of
// point-by-point analysis: enumerate the discrete design space
// (internal RAID level × inter-node fault tolerance × redundancy-set
// size × spare nodes × capacity utilization × rebuild block size),
// prune it with the paper's closed-form approximations as a cheap
// admissible filter, then confirm every survivor exactly by batching
// the sparse chain solves through markov.BatchSolver grouped by frozen
// topology. The output is the exact Pareto frontier on
// (cost, capacity, reliability), ranked deterministically: bit-identical
// at any worker count, per the analysis layer's parallelism contract.
package plan

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/params"
)

// GuardBand is the multiplicative envelope granted to the closed-form
// approximations when they stand in for the exact chain during pruning.
// A closed-form estimate cf is treated as the interval
// [cf/GuardBand, cf·GuardBand] of possible exact events/PB-year, so a
// candidate is discarded only when it is provably out: its lower edge
// already misses the reliability target, or another candidate's upper
// edge beats its lower edge at no more cost and no less capacity
// (which needs a GuardBand² separation of the raw estimates). In the
// paper's operating regime (rebuild rates orders of magnitude above
// failure rates) the printed forms track the exact chains to within a
// few percent, but the approximation error grows like N·λ/μ — at
// fault tolerance 1 with ~128 nodes and stressed failure rates the
// exact result runs ~2.6× away from the closed form.
// TestClosedFormFilterConservative re-verifies the 4× envelope against
// ~500 randomized configurations spanning that whole envelope on every
// run.
const GuardBand = 4.0

// Space is the discrete design space the optimizer enumerates: the
// cross product of every slice. Dimensions follow the paper's design
// question: how is a fixed budget apportioned between internal
// redundancy, inter-node redundancy, spares and rebuild policy?
type Space struct {
	// Internals are the internal (per-node) redundancy schemes.
	Internals []core.InternalRedundancy `json:"internals"`
	// FaultTolerances are the inter-node erasure-code fault tolerances t.
	FaultTolerances []int `json:"fault_tolerances"`
	// RedundancySetSizes are the stripe widths R (data + redundancy).
	RedundancySetSizes []int `json:"redundancy_set_sizes"`
	// SpareNodes are node counts added on top of the base NodeSetSize as
	// fail-in-place spares (they carry data and cost like any node; the
	// headroom is what they buy).
	SpareNodes []int `json:"spare_nodes"`
	// Utilizations are capacity utilization fractions in (0, 1]; the
	// remainder is over-provisioned spare capacity.
	Utilizations []float64 `json:"utilizations"`
	// RebuildBytes are distributed-rebuild command sizes in bytes.
	RebuildBytes []float64 `json:"rebuild_bytes"`
}

// DefaultSpace returns the optimizer's stock design space around the
// paper's baseline: all three internal schemes, fault tolerance 1–3,
// six stripe widths, four spare levels, ten utilizations and five
// rebuild command sizes — 10800 candidates.
func DefaultSpace() Space {
	return Space{
		Internals:          []core.InternalRedundancy{core.InternalNone, core.InternalRAID5, core.InternalRAID6},
		FaultTolerances:    []int{1, 2, 3},
		RedundancySetSizes: []int{4, 6, 8, 10, 12, 16},
		SpareNodes:         []int{0, 8, 16, 32},
		Utilizations:       []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95},
		RebuildBytes:       []float64{64 * params.KiB, 128 * params.KiB, 256 * params.KiB, 512 * params.KiB, 1 * params.MiB},
	}
}

// Size returns the number of candidates the space enumerates,
// saturating at math.MaxInt (which Validate rejects) instead of wrapping.
func (s Space) Size() int {
	lens := [...]int{len(s.Internals), len(s.FaultTolerances), len(s.RedundancySetSizes),
		len(s.SpareNodes), len(s.Utilizations), len(s.RebuildBytes)}
	if slices.Contains(lens[:], 0) {
		return 0
	}
	n := 1
	for _, l := range lens {
		if n > math.MaxInt/l {
			return math.MaxInt
		}
		n *= l
	}
	return n
}

// noDuplicates reports a value listed twice, which enumerates twice.
func noDuplicates[T comparable](dim string, vs []T) error {
	seen := make(map[T]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return fmt.Errorf("plan: %s %v listed twice", dim, v)
		}
		seen[v] = true
	}
	return nil
}

// Validate reports the first structural problem with the space. Values
// that merely produce an infeasible geometry for some candidates (R
// larger than N, utilization of a config the models reject) are not
// errors — those candidates are counted and skipped — but values no
// candidate could ever use are.
func (s Space) Validate() error {
	switch s.Size() {
	case 0:
		return fmt.Errorf("plan: empty design space (every dimension needs at least one value)")
	case math.MaxInt:
		return fmt.Errorf("plan: design space of %d or more candidates cannot be enumerated", math.MaxInt)
	}
	for _, ir := range s.Internals {
		if err := (core.Config{Internal: ir, NodeFaultTolerance: 1}).Validate(); err != nil {
			return fmt.Errorf("plan: internal redundancy %d: %w", int(ir), err)
		}
	}
	for _, ft := range s.FaultTolerances {
		if ft < 1 {
			return fmt.Errorf("plan: fault tolerance %d must be >= 1", ft)
		}
	}
	for _, r := range s.RedundancySetSizes {
		if r < 2 {
			return fmt.Errorf("plan: redundancy set size %d must be >= 2", r)
		}
	}
	for _, sp := range s.SpareNodes {
		if sp < 0 {
			return fmt.Errorf("plan: spare node count %d must be >= 0", sp)
		}
	}
	for _, u := range s.Utilizations {
		if !(u > 0 && u <= 1) { // the negated form also rejects NaN
			return fmt.Errorf("plan: utilization %v must be in (0, 1]", u)
		}
	}
	for _, b := range s.RebuildBytes {
		if !(b > 0) {
			return fmt.Errorf("plan: rebuild command size %v must be positive", b)
		}
	}
	return cmp.Or(noDuplicates("internal redundancy", s.Internals), noDuplicates("fault tolerance", s.FaultTolerances),
		noDuplicates("redundancy set size", s.RedundancySetSizes), noDuplicates("spare node count", s.SpareNodes),
		noDuplicates("utilization", s.Utilizations), noDuplicates("rebuild command size", s.RebuildBytes))
}

// Constraints bound the search: a reliability target plus optional
// budget and capacity floors expressed in the cost model's units.
type Constraints struct {
	// TargetEventsPerPBYear is the maximum acceptable data-loss rate.
	// Zero means the paper's §6 target (2×10⁻³ events/PB-year).
	TargetEventsPerPBYear float64 `json:"target_events_per_pb_year,omitempty"`
	// MaxCostDrives caps a candidate's cost in drive-equivalents
	// (N·(d + NodeCostDrives)). Zero means unbounded.
	MaxCostDrives float64 `json:"max_cost_drives,omitempty"`
	// MinCapacityPB floors the logical (user-visible) capacity. Zero
	// means no floor.
	MinCapacityPB float64 `json:"min_capacity_pb,omitempty"`
	// NodeCostDrives is the fixed per-node overhead (enclosure,
	// controller, links) in drive-equivalents. Zero means drives only.
	NodeCostDrives float64 `json:"node_cost_drives,omitempty"`
}

// target returns the effective reliability target.
func (c Constraints) target() float64 {
	if c.TargetEventsPerPBYear > 0 {
		return c.TargetEventsPerPBYear
	}
	return core.PaperTarget().EventsPerPBYear
}

// Validate rejects constraints no candidate could satisfy meaningfully.
func (c Constraints) Validate() error {
	switch {
	case c.TargetEventsPerPBYear < 0 || math.IsNaN(c.TargetEventsPerPBYear):
		return fmt.Errorf("plan: target %v events/PB-year must be positive (or 0 for the paper's target)", c.TargetEventsPerPBYear)
	case c.MaxCostDrives < 0 || math.IsNaN(c.MaxCostDrives):
		return fmt.Errorf("plan: cost budget %v drive-equivalents must be >= 0 (0 = unbounded)", c.MaxCostDrives)
	case c.MinCapacityPB < 0 || math.IsNaN(c.MinCapacityPB):
		return fmt.Errorf("plan: capacity floor %v PB must be >= 0", c.MinCapacityPB)
	case c.NodeCostDrives < 0 || math.IsNaN(c.NodeCostDrives):
		return fmt.Errorf("plan: node cost %v drive-equivalents must be >= 0", c.NodeCostDrives)
	}
	return nil
}

// Options tune how the search runs; the zero value is the production
// configuration. DisablePrune exists for benchmarking and for tests
// that prove the prune changes nothing — results are identical (same
// frontier, same ranking) with it set, and at any Workers.
type Options struct {
	// Workers sizes the enumeration and confirmation worker pools (0 =
	// runtime.NumCPU(), 1 = serial; negative is rejected). It never
	// changes the result, so it is not part of the wire form.
	Workers int `json:"-"`
	// DisablePrune confirms every feasible candidate exactly instead of
	// closed-form filtering first (the exhaustive baseline).
	DisablePrune bool `json:"disable_prune,omitempty"`
	// Top truncates the ranked frontier to at most this many entries
	// after ranking (0 = no truncation). Stats always describe the full
	// search.
	Top int `json:"top,omitempty"`
}

// Candidate is one point of the design space. Cost, capacity and the
// closed-form bound are populated during enumeration; the exact fields
// only when the candidate survived pruning and was confirmed.
type Candidate struct {
	// Index is the candidate's position in enumeration order — the
	// deterministic identity every ranking tie-break falls back to.
	Index int `json:"index"`

	Internal            core.InternalRedundancy `json:"internal"`
	InternalName        string                  `json:"internal_name"`
	FaultTolerance      int                     `json:"fault_tolerance"`
	RedundancySetSize   int                     `json:"redundancy_set_size"`
	SpareNodes          int                     `json:"spare_nodes"`
	NodeSetSize         int                     `json:"node_set_size"`
	Utilization         float64                 `json:"utilization"`
	RebuildCommandBytes float64                 `json:"rebuild_command_bytes"`

	// CostDrives is the candidate's cost in drive-equivalents:
	// NodeSetSize · (DrivesPerNode + NodeCostDrives).
	CostDrives float64 `json:"cost_drives"`
	// CapacityPB is the logical capacity (core.Result.LogicalCapacityPB).
	CapacityPB float64 `json:"capacity_pb"`
	// BoundEventsPerPBYear is the closed-form estimate used for pruning.
	BoundEventsPerPBYear float64 `json:"bound_events_per_pb_year"`
	// ExactEventsPerPBYear is the exact sparse-chain result; set only
	// when Confirmed.
	ExactEventsPerPBYear float64 `json:"exact_events_per_pb_year,omitempty"`
	// MarginVsTarget is target/exact (values above 1 meet the target);
	// set only when Confirmed.
	MarginVsTarget float64 `json:"margin_vs_target,omitempty"`
	// Confirmed records that the exact solver ran for this candidate.
	Confirmed bool `json:"confirmed"`
}

// Stats counts what happened to the enumerated candidates. Pruning
// categories are disjoint; Enumerated = Infeasible + PrunedTarget +
// PrunedDominated + Confirmed.
type Stats struct {
	// Enumerated is the full size of the design space.
	Enumerated int `json:"enumerated"`
	// Infeasible candidates violated geometry or hard constraints
	// (budget, capacity floor) — exact facts, not bound-based pruning.
	Infeasible int `json:"infeasible"`
	// PrunedTarget candidates provably miss the reliability target even
	// at the favorable edge of the guardband.
	PrunedTarget int `json:"pruned_target"`
	// PrunedDominated candidates are provably Pareto-dominated: some
	// other candidate costs no more, holds no less, and is more reliable
	// even across both guardbands.
	PrunedDominated int `json:"pruned_dominated"`
	// Confirmed candidates were solved exactly.
	Confirmed int `json:"confirmed"`
	// TopologyGroups is the number of distinct frozen chain topologies
	// the confirmed candidates batched into — each group shares one
	// symbolic factorization.
	TopologyGroups int `json:"topology_groups"`
	// FrontierSize is the number of exactly-confirmed candidates on the
	// Pareto frontier.
	FrontierSize int `json:"frontier_size"`
	// PruneRatio is the fraction of enumerated candidates that never
	// reached the exact solver.
	PruneRatio float64 `json:"prune_ratio"`
}

// Result is one completed search: the ranked exact Pareto frontier and
// the accounting of how the space was cut down.
type Result struct {
	// TargetEventsPerPBYear is the effective reliability target used.
	TargetEventsPerPBYear float64 `json:"target_events_per_pb_year"`
	Stats                 Stats   `json:"stats"`
	// Frontier is the exact Pareto frontier on (cost ↓, capacity ↑,
	// events/PB-year ↓), ranked by exact events ascending with
	// (cost, -capacity, index) tie-breaks.
	Frontier []Candidate `json:"frontier"`
}

// rankCandidates orders confirmed candidates for output: most reliable
// first, then cheapest, then largest, then enumeration index — a total
// order, so the ranking is unique and byte-stable.
func rankCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := &cs[i], &cs[j]
		if a.ExactEventsPerPBYear != b.ExactEventsPerPBYear {
			return a.ExactEventsPerPBYear < b.ExactEventsPerPBYear
		}
		if a.CostDrives != b.CostDrives {
			return a.CostDrives < b.CostDrives
		}
		if a.CapacityPB != b.CapacityPB {
			return a.CapacityPB > b.CapacityPB
		}
		return a.Index < b.Index
	})
}
