package plan

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
)

// confirmChunkCells caps the cells per confirmation work unit, so a
// handful of large topology groups still spreads across the worker
// pool. Like the sweep engine's chunk size it is purely a scheduling
// knob: every chunk writes caller-indexed slots, so results are
// identical at any value.
const confirmChunkCells = 256

// SearchCtx runs the two-phase design-space search over base overridden
// by each candidate's knobs:
//
//  1. Enumerate the space in a fixed nested order (internal scheme,
//     fault tolerance, stripe width, spares, utilization, rebuild
//     size), computing each candidate's cost, capacity and closed-form
//     reliability estimate; candidates violating geometry or the hard
//     cost/capacity constraints are dropped as infeasible.
//  2. Prune with the closed forms as an admissible filter: a candidate
//     is discarded only when provably out under the GuardBand envelope
//     — its optimistic edge already misses the target, or another
//     candidate is at least as cheap and as large with a pessimistic
//     edge strictly better than this one's optimistic edge.
//  3. Confirm every survivor exactly: survivors are grouped by
//     (internal, fault tolerance) — the only knobs that shape the chain
//     topology — so each group batches through one bound
//     markov.BatchSolver sharing a single symbolic factorization, with
//     chunks fanned across the deterministic worker pool (opt.Workers
//     goroutines; 0 = runtime.NumCPU()).
//  4. Rank the exact Pareto frontier on (cost ↓, capacity ↑, events ↓)
//     among confirmed candidates that meet the target.
//
// Enumeration order fixes every candidate's Index, all results land in
// caller-indexed slots, and every sort uses a total order ending in
// Index, so the ranked frontier is bit-identical at any worker count
// and with pruning or batching disabled (Options) — only the time
// changes.
//
// Errors: an invalid base, space or constraints fails fast; a survivor
// whose exact confirmation fails reports the lowest-indexed failing
// candidate (candidates whose closed form is already beyond float64 are
// classed infeasible up front — the exact dense solve cannot represent
// them either).
func SearchCtx(ctx context.Context, base params.Parameters, space Space, cons Constraints, opt Options) (*Result, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "plan.search")
	defer span.End()
	done := searchTimer()

	res := &Result{TargetEventsPerPBYear: cons.target()}
	st := &res.Stats

	cands, err := enumerate(ctx, base, space, cons, opt.Workers, st)
	if err != nil {
		return nil, err
	}
	var surv []int
	if opt.DisablePrune {
		surv = make([]int, len(cands))
		for i := range cands {
			surv[i] = i
		}
	} else {
		surv = prune(ctx, cands, res.TargetEventsPerPBYear, st)
	}
	if err := confirm(ctx, base, cands, surv, res.TargetEventsPerPBYear, opt.Workers, st); err != nil {
		return nil, err
	}

	_, rsp := obs.StartSpan(ctx, "plan.rank")
	res.Frontier = buildFrontier(cands, surv, res.TargetEventsPerPBYear)
	st.FrontierSize = len(res.Frontier)
	if opt.Top > 0 && len(res.Frontier) > opt.Top {
		res.Frontier = res.Frontier[:opt.Top]
	}
	rsp.End()

	if st.Enumerated > 0 {
		st.PruneRatio = 1 - float64(st.Confirmed)/float64(st.Enumerated)
	}
	span.SetAttr("enumerated", st.Enumerated)
	span.SetAttr("confirmed", st.Confirmed)
	span.SetAttr("frontier", st.FrontierSize)
	if done != nil {
		done(*st)
	}
	return res, nil
}

// enumerate walks the space in its fixed nested order and returns the
// feasible candidates with cost, capacity and closed-form bound filled
// in; infeasible candidates (geometry the models reject, budget or
// capacity-floor violations, closed forms beyond float64) are only
// counted.
//
// The walk fans out over the worker pool in (internal, fault tolerance,
// stripe width) blocks. Every block writes its candidates into slots of
// one Size()-long slab addressed by Index, marking infeasible slots with
// Index -1; a serial in-place compaction then restores enumeration
// order, so the result is identical at any worker count.
func enumerate(ctx context.Context, base params.Parameters, space Space, cons Constraints, workers int, st *Stats) ([]Candidate, error) {
	ctx, sp := obs.StartSpan(ctx, "plan.enumerate")
	defer sp.End()
	slab := make([]Candidate, space.Size())
	nR := len(space.RedundancySetSizes)
	blockLen := len(space.SpareNodes) * len(space.Utilizations) * len(space.RebuildBytes)
	blocks := len(space.Internals) * len(space.FaultTolerances) * nR
	err := core.RunIndexed(ctx, blocks, workers, func(b int) error {
		ir := space.Internals[b/(len(space.FaultTolerances)*nR)]
		ft := space.FaultTolerances[b/nR%len(space.FaultTolerances)]
		cfg := core.Config{Internal: ir, NodeFaultTolerance: ft}
		p := base
		p.RedundancySetSize = space.RedundancySetSizes[b%nR]
		idx := b * blockLen
		for _, spn := range space.SpareNodes {
			for _, util := range space.Utilizations {
				for _, rb := range space.RebuildBytes {
					if err := ctx.Err(); err != nil {
						return err
					}
					i := idx
					idx++
					slab[i].Index = -1 // overwritten below if feasible
					p.NodeSetSize = base.NodeSetSize + spn
					p.CapacityUtilization = util
					p.RebuildCommandBytes = rb
					cost := float64(p.NodeSetSize) * (float64(p.DrivesPerNode) + cons.NodeCostDrives)
					if cons.MaxCostDrives > 0 && cost > cons.MaxCostDrives {
						continue
					}
					cf, err := core.AnalyzeCtx(ctx, p, cfg, core.MethodClosedForm)
					if err != nil {
						continue
					}
					if cons.MinCapacityPB > 0 && cf.LogicalCapacityPB < cons.MinCapacityPB {
						continue
					}
					slab[i] = Candidate{
						Index:                i,
						Internal:             ir,
						InternalName:         ir.String(),
						FaultTolerance:       ft,
						RedundancySetSize:    p.RedundancySetSize,
						SpareNodes:           spn,
						NodeSetSize:          p.NodeSetSize,
						Utilization:          util,
						RebuildCommandBytes:  rb,
						CostDrives:           cost,
						CapacityPB:           cf.LogicalCapacityPB,
						BoundEventsPerPBYear: cf.EventsPerPBYear,
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for i := range slab {
		if slab[i].Index < 0 {
			st.Infeasible++
			continue
		}
		if n != i {
			slab[n] = slab[i]
		}
		n++
	}
	st.Enumerated = len(slab)
	return slab[:n], nil
}

// prune applies the two admissible filters and returns the surviving
// indices into cands, in enumeration order.
func prune(ctx context.Context, cands []Candidate, target float64, st *Stats) []int {
	_, sp := obs.StartSpan(ctx, "plan.prune")
	defer sp.End()
	// Target filter: discard only candidates whose optimistic edge
	// (bound/GuardBand) already misses the target.
	kept := make([]int, 0, len(cands))
	for i := range cands {
		if cands[i].BoundEventsPerPBYear/GuardBand > target {
			st.PrunedTarget++
			continue
		}
		kept = append(kept, i)
	}
	dominated := dominancePrune(cands, kept)
	surv := kept[:0]
	for j, i := range kept {
		if dominated[j] {
			st.PrunedDominated++
			continue
		}
		surv = append(surv, i)
	}
	return surv
}

// domKey is one kept candidate's dominance coordinates: capRank orders
// capacities descending (equal ranks are equal capacities), and pos is
// the position in kept, which is enumeration (Index) order.
type domKey struct {
	cost, bound  float64
	capRank, pos int32
}

// dominancePrune marks the kept candidates that are provably
// Pareto-dominated under the guardband: B is dominated when some A
// costs no more, holds no less capacity, and A's pessimistic edge
// (bound·GuardBand) is strictly below B's optimistic edge
// (bound/GuardBand) — so A's exact result beats B's wherever both land
// inside their envelopes. The strict inequality makes self-domination
// impossible, and the relation is transitive (lo < hi always), so
// letting dominated candidates act as dominators is sound: their own
// dominator dominates the victim too.
//
// The scan sorts the keys once under (cost ↑, capacity ↓, bound ↑,
// Index ↑) and walks them in equal-cost groups. A member of a group is
// checked against (a) strictly cheaper candidates with capacity ≥ its
// own — a Fenwick tree of minimum pessimistic edges over descending
// capacity ranks, fed each group after the group is checked — and (b)
// the running minimum over the group members before it, which in this
// order are the only members that can dominate it. O(n log n) overall.
func dominancePrune(cands []Candidate, kept []int) []bool {
	caps := make([]float64, len(kept))
	for pos, i := range kept {
		caps[pos] = cands[i].CapacityPB
	}
	slices.Sort(caps)
	caps = slices.Compact(caps)
	keys := make([]domKey, len(kept))
	for pos, i := range kept {
		c := &cands[i]
		r, _ := slices.BinarySearch(caps, c.CapacityPB)
		keys[pos] = domKey{cost: c.CostDrives, bound: c.BoundEventsPerPBYear,
			capRank: int32(len(caps) - 1 - r), pos: int32(pos)}
	}
	// Plain comparisons, not cmp.Compare: the keys hold no NaN (closed
	// forms beyond float64 are infeasible), and skipping its NaN checks
	// made the whole prune phase ~15% faster on the stock space.
	slices.SortFunc(keys, func(a, b domKey) int {
		switch {
		case a.cost != b.cost:
			if a.cost < b.cost {
				return -1
			}
			return 1
		case a.capRank != b.capRank:
			return int(a.capRank - b.capRank)
		case a.bound != b.bound:
			if a.bound < b.bound {
				return -1
			}
			return 1
		}
		return int(a.pos - b.pos)
	})

	// tree is a Fenwick tree over capacity ranks: the prefix [0, r] —
	// capacities at least rank r's — yields the minimum pessimistic edge
	// among the strictly cheaper groups inserted so far.
	tree := make([]float64, len(caps))
	for i := range tree {
		tree[i] = math.Inf(1)
	}
	cheaperMin := func(r int32) float64 {
		m := math.Inf(1)
		for i := r + 1; i > 0; i -= i & -i {
			if tree[i-1] < m {
				m = tree[i-1]
			}
		}
		return m
	}

	dominated := make([]bool, len(kept))
	for g := 0; g < len(keys); {
		h := g
		for h < len(keys) && keys[h].cost == keys[g].cost {
			h++
		}
		running := math.Inf(1)
		for _, k := range keys[g:h] {
			lo := k.bound / GuardBand
			if math.Min(running, cheaperMin(k.capRank)) < lo {
				dominated[k.pos] = true
			}
			if hi := k.bound * GuardBand; hi < running {
				running = hi
			}
		}
		for _, k := range keys[g:h] {
			hi := k.bound * GuardBand
			for i := int(k.capRank) + 1; i <= len(tree); i += i & -i {
				if hi < tree[i-1] {
					tree[i-1] = hi
				}
			}
		}
		g = h
	}
	return dominated
}

// confirm solves every survivor exactly, writing results back into
// cands. Survivors are in enumeration order, so candidates sharing a
// chain topology — a function of (internal, fault tolerance) alone —
// are contiguous; each such group batches through one bound solver,
// split into chunks fanned over the worker pool. Error semantics mirror
// the sweep engine: the lowest-indexed failing candidate is reported,
// with the cause core.AnalyzeCtx would give for it.
func confirm(ctx context.Context, base params.Parameters, cands []Candidate, surv []int, target float64, workers int, st *Stats) error {
	ctx, sp := obs.StartSpan(ctx, "plan.confirm")
	defer sp.End()
	if len(surv) == 0 {
		return nil
	}
	ps := make([]params.Parameters, len(surv))
	for i, ci := range surv {
		ps[i] = cands[ci].resolve(base)
	}
	out := make([]core.Result, len(surv))

	type chunkSpec struct {
		cfg    core.Config
		lo, hi int
	}
	var chunks []chunkSpec
	for lo := 0; lo < len(surv); {
		cfg := cands[surv[lo]].Config()
		hi := lo
		for hi < len(surv) && cands[surv[hi]].Config() == cfg {
			hi++
		}
		st.TopologyGroups++
		observeGroupCells(hi - lo)
		for a := lo; a < hi; a += confirmChunkCells {
			b := a + confirmChunkCells
			if b > hi {
				b = hi
			}
			chunks = append(chunks, chunkSpec{cfg: cfg, lo: a, hi: b})
		}
		lo = hi
	}

	// First-error reduction by survivor index, mirroring the sweep
	// engine's lowest-failing-cell guarantee.
	var (
		mu       sync.Mutex
		firstIdx = len(surv)
		firstErr error
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}

	rerr := core.RunIndexed(ctx, len(chunks), workers, func(k int) error {
		ch := chunks[k]
		idx, err := core.AnalyzeChainBatchCtx(ctx, ch.cfg, ps[ch.lo:ch.hi], out[ch.lo:ch.hi])
		if err != nil {
			if idx < 0 {
				return err // cancellation: propagate as-is
			}
			record(ch.lo+idx, err)
		}
		return nil
	})
	mu.Lock()
	idx, err := firstIdx, firstErr
	mu.Unlock()
	if err != nil {
		c := &cands[surv[idx]]
		return fmt.Errorf("plan: confirming candidate %d (%v): %w", c.Index, c.Config(), err)
	}
	if rerr != nil {
		return rerr
	}
	for i, ci := range surv {
		c := &cands[ci]
		c.ExactEventsPerPBYear = out[i].EventsPerPBYear
		c.MarginVsTarget = target / out[i].EventsPerPBYear
		c.Confirmed = true
		st.Confirmed++
	}
	return nil
}

// buildFrontier returns the exact Pareto frontier — confirmed
// candidates meeting the target that no other such candidate weakly
// beats on all of (cost, capacity, events) with at least one strict
// improvement — ranked by rankCandidates. Strict dominance is a strict
// partial order whose maximal elements (the frontier) dominate every
// dominated candidate transitively, and any dominator sorts strictly
// earlier under (cost ↑, capacity ↓, events ↑, index), so one forward
// sweep comparing only against the frontier built so far is complete.
// The sweep orders indices into cands; only the frontier is copied.
func buildFrontier(cands []Candidate, surv []int, target float64) []Candidate {
	meets := make([]int, 0, len(surv))
	for _, ci := range surv {
		if cands[ci].Confirmed && cands[ci].ExactEventsPerPBYear < target {
			meets = append(meets, ci)
		}
	}
	slices.SortFunc(meets, func(i, j int) int {
		a, b := &cands[i], &cands[j]
		if c := cmp.Compare(a.CostDrives, b.CostDrives); c != 0 {
			return c
		}
		if c := cmp.Compare(b.CapacityPB, a.CapacityPB); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ExactEventsPerPBYear, b.ExactEventsPerPBYear); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	var front []int
	for _, bi := range meets {
		b := &cands[bi]
		dom := false
		for _, ai := range front {
			a := &cands[ai]
			if a.CostDrives <= b.CostDrives && a.CapacityPB >= b.CapacityPB &&
				a.ExactEventsPerPBYear <= b.ExactEventsPerPBYear &&
				(a.CostDrives < b.CostDrives || a.CapacityPB > b.CapacityPB ||
					a.ExactEventsPerPBYear < b.ExactEventsPerPBYear) {
				dom = true
				break
			}
		}
		if !dom {
			front = append(front, bi)
		}
	}
	frontier := make([]Candidate, len(front))
	for i, ci := range front {
		frontier[i] = cands[ci]
	}
	rankCandidates(frontier)
	return frontier
}
