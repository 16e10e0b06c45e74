package plan

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/rebuild"
)

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
//     the analysis engine's chunks fanned across the deterministic
//     worker pool (opt.Workers goroutines; 0 = runtime.NumCPU()).
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
	m := obs.Bundle(ctx, newSearchMetrics)

	res := &Result{TargetEventsPerPBYear: cons.target()}
	st := &res.Stats

	keys, err := enumerate(ctx, &base, &space, cons, opt.Workers, st)
	if err != nil {
		return nil, err
	}
	var surv []int
	if opt.DisablePrune {
		surv = make([]int, len(keys))
		for i := range keys {
			surv[i] = i
		}
	} else {
		surv = prune(ctx, keys, res.TargetEventsPerPBYear, st)
	}
	if err := confirm(ctx, &base, &space, keys, surv, opt.Workers, st, m); err != nil {
		return nil, err
	}

	_, rsp := obs.StartSpan(ctx, "plan.rank")
	res.Frontier = rankFrontier(&base, &space, keys, buildFrontier(keys, surv, res.TargetEventsPerPBYear), res.TargetEventsPerPBYear)
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
	m.searchDone(st)
	return res, nil
}

// key is one feasible candidate's search coordinates: its Index, cost,
// capacity, closed-form bound and, once confirmed, exact events/PB-year.
// It holds no pointer, so the Size()-long enumeration slab is neither
// scanned by the garbage collector nor costly to clear; the knobs are
// decoded from the index (Space.knobs) for the few candidates that
// need them — survivors being confirmed and frontier members.
//
// costRank orders the costs: equal costs share a rank and a lower rank
// is a lower cost. Cost is a function of the spare count alone, so
// enumeration ranks the few spare levels once and the prune and the
// frontier index their Fenwick trees by it without sorting costs.
type key struct {
	index                        int
	cost, capacity, bound, exact float64
	costRank                     int32
	confirmed                    bool
}

// knobs decodes a candidate index into the values of the six dimensions,
// inverting the nested enumeration order (internal scheme outermost,
// rebuild size innermost).
func (s *Space) knobs(i int) (ir core.InternalRedundancy, ft, r, spares int, util, rb float64) {
	rb = s.RebuildBytes[i%len(s.RebuildBytes)]
	i /= len(s.RebuildBytes)
	util = s.Utilizations[i%len(s.Utilizations)]
	i /= len(s.Utilizations)
	spares = s.SpareNodes[i%len(s.SpareNodes)]
	i /= len(s.SpareNodes)
	r = s.RedundancySetSizes[i%len(s.RedundancySetSizes)]
	i /= len(s.RedundancySetSizes)
	ft = s.FaultTolerances[i%len(s.FaultTolerances)]
	ir = s.Internals[i/len(s.FaultTolerances)]
	return ir, ft, r, spares, util, rb
}

// config returns candidate i's redundancy configuration — the knobs
// that fix its chain topology.
func (s *Space) config(i int) core.Config {
	ir, ft, _, _, _, _ := s.knobs(i)
	return core.Config{Internal: ir, NodeFaultTolerance: ft}
}

// resolve returns the parameter set candidate i analyzes: base with the
// knobs the space varies.
func (s *Space) resolve(base *params.Parameters, i int) params.Parameters {
	_, _, r, spares, util, rb := s.knobs(i)
	p := *base
	p.NodeSetSize = base.NodeSetSize + spares
	p.RedundancySetSize = r
	p.CapacityUtilization = util
	p.RebuildCommandBytes = rb
	return p
}

// candidate builds the output form of the candidate behind k.
func (s *Space) candidate(base *params.Parameters, k *key, target float64) Candidate {
	ir, ft, r, spares, util, rb := s.knobs(k.index)
	c := Candidate{
		Index:                k.index,
		Internal:             ir,
		InternalName:         ir.String(),
		FaultTolerance:       ft,
		RedundancySetSize:    r,
		SpareNodes:           spares,
		NodeSetSize:          base.NodeSetSize + spares,
		Utilization:          util,
		RebuildCommandBytes:  rb,
		CostDrives:           k.cost,
		CapacityPB:           k.capacity,
		BoundEventsPerPBYear: k.bound,
	}
	if k.confirmed {
		c.ExactEventsPerPBYear = k.exact
		c.MarginVsTarget = target / k.exact
		c.Confirmed = true
	}
	return c
}

// enumerate walks the space in its fixed nested order and returns the
// keys of the feasible candidates with cost, capacity and closed-form
// bound filled in; infeasible candidates (geometry the models reject,
// budget or capacity-floor violations, closed forms beyond float64) are
// only counted.
//
// The walk fans out over the worker pool in (internal, fault tolerance,
// stripe width) blocks. Every block writes its candidates into slots of
// one Size()-long slab addressed by Index, marking infeasible slots with
// index -1; a serial in-place compaction then restores enumeration
// order, so the result is identical at any worker count. Each candidate
// is one core.ClosedForm evaluation reading the block's parameter set
// through a pointer; the block's rebuild-rate telemetry is flushed once
// when the block ends. The context is polled once per (spares,
// utilization) row of the block.
func enumerate(ctx context.Context, base *params.Parameters, space *Space, cons Constraints, workers int, st *Stats) ([]key, error) {
	ctx, sp := obs.StartSpan(ctx, "plan.enumerate")
	defer sp.End()
	slab := make([]key, space.Size())
	costs := make([]float64, len(space.SpareNodes))
	for j, spn := range space.SpareNodes {
		costs[j] = float64(base.NodeSetSize+spn) * (float64(base.DrivesPerNode) + cons.NodeCostDrives)
	}
	levels := slices.Clone(costs)
	slices.Sort(levels)
	levels = slices.Compact(levels)
	ranks := make([]int32, len(costs))
	for j, c := range costs {
		r, _ := slices.BinarySearch(levels, c)
		ranks[j] = int32(r)
	}
	blockLen := len(space.SpareNodes) * len(space.Utilizations) * len(space.RebuildBytes)
	blocks := len(space.Internals) * len(space.FaultTolerances) * len(space.RedundancySetSizes)
	err := core.RunIndexed(ctx, blocks, workers, func(b int) error {
		cfg := space.config(b * blockLen)
		p := space.resolve(base, b*blockLen)
		var tl rebuild.Tally
		defer tl.Flush(ctx)
		i := b * blockLen
		for j, spn := range space.SpareNodes {
			p.NodeSetSize = base.NodeSetSize + spn
			cost := costs[j]
			for _, util := range space.Utilizations {
				if err := ctx.Err(); err != nil {
					return err
				}
				p.CapacityUtilization = util
				for _, rb := range space.RebuildBytes {
					idx := i
					i++
					slab[idx].index = -1 // overwritten below if feasible
					if cons.MaxCostDrives > 0 && cost > cons.MaxCostDrives {
						continue
					}
					p.RebuildCommandBytes = rb
					est, err := core.ClosedForm(&p, cfg, &tl)
					if err != nil {
						continue
					}
					if cons.MinCapacityPB > 0 && est.LogicalCapacityPB < cons.MinCapacityPB {
						continue
					}
					slab[idx] = key{index: idx, cost: cost, capacity: est.LogicalCapacityPB,
						bound: est.EventsPerPBYear, costRank: ranks[j]}
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
		if slab[i].index < 0 {
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
// positions in keys, in enumeration order.
func prune(ctx context.Context, keys []key, target float64, st *Stats) []int {
	_, sp := obs.StartSpan(ctx, "plan.prune")
	defer sp.End()
	// Target filter: discard only candidates whose optimistic edge
	// (bound/GuardBand) already misses the target.
	kept := make([]int, 0, len(keys))
	for i := range keys {
		if keys[i].bound/GuardBand > target {
			st.PrunedTarget++
			continue
		}
		kept = append(kept, i)
	}
	dominated := dominancePrune(keys, kept)
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

// domRow is a run of consecutive kept candidates with equal cost and
// capacity — kept[lo:hi] — and the minimum pessimistic edge among them.
type domRow struct {
	capacity, minHi float64
	costRank        int32
	lo, hi          int
}

// dominancePrune marks the kept candidates that are provably
// Pareto-dominated under the guardband: B is dominated when some A
// costs no more, holds no less capacity, and A's pessimistic edge
// (bound·GuardBand) is strictly below B's optimistic edge
// (bound/GuardBand) — so A's exact result beats B's wherever both land
// inside their envelopes. The relation is transitive (lo < hi always),
// so letting dominated candidates act as dominators is sound: their own
// dominator dominates the victim too.
//
// The scan works on rows, runs of consecutive kept candidates with
// equal cost and capacity (the stock space's innermost axis, the
// rebuild size, moves neither). It visits the rows once in descending
// capacity, in groups of equal capacity, feeding a Fenwick tree of
// minimum pessimistic edges over cost ranks: a group is inserted before
// it is queried, so a row's prefix query covers every row as large as
// it and no more costly — itself and its own group included. A
// candidate is dominated when that minimum is below its optimistic
// edge. A candidate cannot dominate itself (its own pessimistic edge is
// never below its optimistic one, bounds being positive), so no order
// within a group is needed. O(n + r log r) for r rows.
func dominancePrune(keys []key, kept []int) []bool {
	n, levels := 0, int32(0)
	for pos, ki := range kept {
		if pos == 0 || !sameRow(&keys[kept[pos-1]], &keys[ki]) {
			n++
		}
		levels = max(levels, keys[ki].costRank+1)
	}
	rows := make([]domRow, 0, n)
	for pos := 0; pos < len(kept); {
		k := &keys[kept[pos]]
		row := domRow{capacity: k.capacity, minHi: math.Inf(1), costRank: k.costRank, lo: pos}
		for ; pos < len(kept); pos++ {
			m := &keys[kept[pos]]
			if !sameRow(k, m) {
				break
			}
			if hi := m.bound * GuardBand; hi < row.minHi {
				row.minHi = hi
			}
		}
		row.hi = pos
		rows = append(rows, row)
	}
	// Plain comparisons, not cmp.Compare: capacities hold no NaN
	// (closed forms beyond float64 are infeasible). Equal capacities
	// may land in any order; the decisions do not depend on it.
	slices.SortFunc(rows, func(a, b domRow) int {
		switch {
		case a.capacity > b.capacity:
			return -1
		case a.capacity < b.capacity:
			return 1
		}
		return 0
	})

	// tree is a Fenwick tree over cost ranks: the prefix [0, r] — costs
	// at most rank r's — yields the minimum pessimistic edge among the
	// rows inserted so far.
	tree := make([]float64, levels)
	for i := range tree {
		tree[i] = math.Inf(1)
	}
	dominated := make([]bool, len(kept))
	for g := 0; g < len(rows); {
		h := g
		for h < len(rows) && rows[h].capacity == rows[g].capacity {
			h++
		}
		for _, row := range rows[g:h] {
			for i := row.costRank + 1; i <= levels; i += i & -i {
				if row.minHi < tree[i-1] {
					tree[i-1] = row.minHi
				}
			}
		}
		for _, row := range rows[g:h] {
			m := math.Inf(1)
			for i := row.costRank + 1; i > 0; i -= i & -i {
				if tree[i-1] < m {
					m = tree[i-1]
				}
			}
			for pos := row.lo; pos < row.hi; pos++ {
				if m < keys[kept[pos]].bound/GuardBand {
					dominated[pos] = true
				}
			}
		}
		g = h
	}
	return dominated
}

// sameRow reports whether two candidates share cost and capacity.
func sameRow(a, b *key) bool {
	return a.cost == b.cost && a.capacity == b.capacity
}

// confirm solves every survivor exactly, writing the results into keys.
// Survivors are in enumeration order, so candidates sharing a chain
// topology — a function of (internal, fault tolerance) alone — are
// contiguous; each such group is one range of the analysis engine
// (core.AnalyzeRanges), which splits it into chunks batched through one
// bound solver each and fans them over the worker pool. Error semantics
// mirror the sweep: the lowest-indexed failing candidate is reported,
// with the cause core.AnalyzeCtx would give for it.
func confirm(ctx context.Context, base *params.Parameters, space *Space, keys []key, surv []int, workers int, st *Stats, m *searchMetrics) error {
	ctx, sp := obs.StartSpan(ctx, "plan.confirm")
	defer sp.End()
	var groups []core.CellRange
	for lo := 0; lo < len(surv); {
		cfg := space.config(keys[surv[lo]].index)
		hi := lo
		for hi < len(surv) && space.config(keys[surv[hi]].index) == cfg {
			hi++
		}
		st.TopologyGroups++
		m.observeGroupCells(hi - lo)
		groups = append(groups, core.CellRange{Cfg: cfg, Lo: lo, Hi: hi})
		lo = hi
	}
	row, _, err := core.AnalyzeRanges(ctx, core.MethodExactChain, groups, workers,
		func(row, _ int, p *params.Parameters) { *p = space.resolve(base, keys[surv[row]].index) },
		func(ch core.CellRange, res []core.Result) {
			// Each chunk writes only its own survivors' keys.
			for i := range res {
				k := &keys[surv[ch.Lo+i]]
				k.exact, k.confirmed = res[i].EventsPerPBYear, true
			}
		})
	if err != nil {
		if row < 0 {
			return err // cancellation: propagate as-is
		}
		i := keys[surv[row]].index
		return fmt.Errorf("plan: confirming candidate %d (%v): %w", i, space.config(i), err)
	}
	st.Confirmed += len(surv)
	return nil
}

// buildFrontier returns the positions in keys of the exact Pareto
// frontier — confirmed survivors meeting the target that no other such
// candidate weakly beats on all of (cost, capacity, events) with at
// least one strict improvement — in (capacity ↓, cost ↑, events ↑,
// index ↑) order.
//
// Any strict dominator sorts strictly earlier in that order, and every
// earlier candidate holds at least as much capacity, so B is dominated
// exactly when some earlier candidate with a different (cost, capacity,
// events) triple costs no more with at most B's events. One forward
// sweep finds them: a Fenwick tree of minimum exact events over cost
// ranks holds every candidate passed so far, and each run of identical
// triples is queried before it is inserted, so its members — which do
// not dominate each other — stand or fall together. O(n log n).
func buildFrontier(keys []key, surv []int, target float64) []int {
	// meets holds the candidates' coordinates by value, so the sort
	// compares without chasing positions into keys. Keys are in
	// enumeration order, so position order is Index order.
	type point struct {
		capacity, exact float64
		costRank        int32
		pos             int
	}
	meets := make([]point, 0, len(surv))
	levels := int32(0)
	for _, ki := range surv {
		if k := &keys[ki]; k.confirmed && k.exact < target {
			meets = append(meets, point{capacity: k.capacity, exact: k.exact, costRank: k.costRank, pos: ki})
			levels = max(levels, k.costRank+1)
		}
	}
	// Plain comparisons, not cmp.Compare: exact results are never NaN
	// (core rejects unusable MTTDLs).
	slices.SortFunc(meets, func(a, b point) int {
		switch {
		case a.capacity != b.capacity:
			if a.capacity > b.capacity {
				return -1
			}
			return 1
		case a.costRank != b.costRank:
			return int(a.costRank - b.costRank)
		case a.exact != b.exact:
			if a.exact < b.exact {
				return -1
			}
			return 1
		}
		return a.pos - b.pos
	})

	// tree is a Fenwick tree over cost ranks: the prefix [0, r] — costs
	// at most rank r's — yields the minimum exact events among the
	// candidates inserted so far.
	tree := make([]float64, levels)
	for i := range tree {
		tree[i] = math.Inf(1)
	}
	var front []int
	for g := 0; g < len(meets); {
		a := &meets[g]
		h := g + 1
		for h < len(meets) && meets[h].capacity == a.capacity && meets[h].costRank == a.costRank && meets[h].exact == a.exact {
			h++
		}
		m := math.Inf(1)
		for i := a.costRank + 1; i > 0; i -= i & -i {
			if tree[i-1] < m {
				m = tree[i-1]
			}
		}
		if !(m <= a.exact) {
			for _, p := range meets[g:h] {
				front = append(front, p.pos)
			}
		}
		for i := a.costRank + 1; i <= levels; i += i & -i {
			if a.exact < tree[i-1] {
				tree[i-1] = a.exact
			}
		}
		g = h
	}
	return front
}

// rankFrontier builds the frontier members' Candidates and ranks them
// with rankCandidates.
func rankFrontier(base *params.Parameters, space *Space, keys []key, front []int, target float64) []Candidate {
	frontier := make([]Candidate, len(front))
	for i, ki := range front {
		frontier[i] = space.candidate(base, &keys[ki], target)
	}
	rankCandidates(frontier)
	return frontier
}
