package plan

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// testSpace is a moderate slice of the default space: every internal
// scheme and a real spread of the other knobs, small enough that the
// exhaustive baseline stays fast in tests.
func testSpace() Space {
	return Space{
		Internals:          []core.InternalRedundancy{core.InternalNone, core.InternalRAID5, core.InternalRAID6},
		FaultTolerances:    []int{1, 2, 3},
		RedundancySetSizes: []int{4, 8, 12},
		SpareNodes:         []int{0, 16},
		Utilizations:       []float64{0.5, 0.75, 0.95},
		RebuildBytes:       []float64{64 * params.KiB, 256 * params.KiB, 1 * params.MiB},
	}
}

func TestSearchDefaultSpaceSmoke(t *testing.T) {
	res, err := SearchCtx(context.Background(), params.Baseline(), DefaultSpace(), Constraints{}, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	st := res.Stats
	if st.Enumerated != DefaultSpace().Size() {
		t.Errorf("enumerated %d, want %d", st.Enumerated, DefaultSpace().Size())
	}
	if got := st.Infeasible + st.PrunedTarget + st.PrunedDominated + st.Confirmed; got != st.Enumerated {
		t.Errorf("stats do not partition the space: %d + %d + %d + %d = %d != %d",
			st.Infeasible, st.PrunedTarget, st.PrunedDominated, st.Confirmed, got, st.Enumerated)
	}
	if st.PrunedTarget+st.PrunedDominated == 0 {
		t.Error("pruning removed nothing from the default space")
	}
	if st.Confirmed == 0 || len(res.Frontier) == 0 {
		t.Fatalf("confirmed %d candidates, frontier %d — want both > 0", st.Confirmed, len(res.Frontier))
	}
	if st.TopologyGroups == 0 || st.TopologyGroups > 9 {
		t.Errorf("topology groups = %d, want 1..9 (3 internals × 3 fault tolerances)", st.TopologyGroups)
	}
	target := res.TargetEventsPerPBYear
	if target != core.PaperTarget().EventsPerPBYear {
		t.Errorf("default target %g, want the paper's %g", target, core.PaperTarget().EventsPerPBYear)
	}
	for i, c := range res.Frontier {
		if !c.Confirmed {
			t.Fatalf("frontier[%d] not exactly confirmed", i)
		}
		if c.ExactEventsPerPBYear >= target {
			t.Errorf("frontier[%d] misses the target: %g >= %g", i, c.ExactEventsPerPBYear, target)
		}
		if i > 0 && res.Frontier[i-1].ExactEventsPerPBYear > c.ExactEventsPerPBYear {
			t.Errorf("frontier not ranked by exact events at %d", i)
		}
	}
	// Frontier members must be mutually non-dominated on the exact axes.
	for i := range res.Frontier {
		for j := range res.Frontier {
			a, b := res.Frontier[i], res.Frontier[j]
			if i != j && a.CostDrives <= b.CostDrives && a.CapacityPB >= b.CapacityPB &&
				a.ExactEventsPerPBYear <= b.ExactEventsPerPBYear &&
				(a.CostDrives < b.CostDrives || a.CapacityPB > b.CapacityPB || a.ExactEventsPerPBYear < b.ExactEventsPerPBYear) {
				t.Fatalf("frontier[%d] dominates frontier[%d]", i, j)
			}
		}
	}
}

// The acceptance gate: the ranked output is byte-identical at every
// worker count. The constrained case interleaves infeasible candidates
// (stripes too narrow for the fault tolerance, budget and capacity-floor
// violations) with feasible ones throughout enumeration order.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	base := params.Baseline()
	narrow := testSpace()
	narrow.RedundancySetSizes = []int{2, 4, 8, 12}
	cases := []struct {
		name  string
		space Space
		cons  Constraints
	}{
		{"free", testSpace(), Constraints{}},
		{"constrained", narrow, Constraints{
			MaxCostDrives: float64(base.NodeSetSize+8) * float64(base.DrivesPerNode),
			MinCapacityPB: 0.05,
		}},
	}
	for _, tc := range cases {
		var ref []byte
		for _, w := range []int{1, 2, 7, runtime.NumCPU()} {
			res, err := SearchCtx(context.Background(), base, tc.space, tc.cons, Options{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if tc.cons != (Constraints{}) && (res.Stats.Infeasible == 0 || res.Stats.Confirmed == 0) {
				t.Fatalf("%s: infeasible %d, confirmed %d — want both > 0",
					tc.name, res.Stats.Infeasible, res.Stats.Confirmed)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if ref == nil {
				ref = got
			} else if string(got) != string(ref) {
				t.Errorf("%s workers=%d: ranked output differs from workers=1", tc.name, w)
			}
		}
	}
}

// Pruning is an optimization, not an approximation: the frontier with
// the closed-form filter on equals the frontier of the exhaustive
// search that confirms every feasible candidate exactly. This is the
// end-to-end form of the conservativeness property — the filter never
// discards a candidate the exact frontier wanted.
func TestSearchPruneMatchesExhaustive(t *testing.T) {
	base := params.Baseline()
	space := testSpace()
	pruned, err := SearchCtx(context.Background(), base, space, Constraints{}, Options{})
	if err != nil {
		t.Fatalf("pruned search: %v", err)
	}
	exhaustive, err := SearchCtx(context.Background(), base, space, Constraints{}, Options{DisablePrune: true})
	if err != nil {
		t.Fatalf("exhaustive search: %v", err)
	}
	if exhaustive.Stats.Confirmed <= pruned.Stats.Confirmed {
		t.Errorf("exhaustive confirmed %d <= pruned %d — prune did nothing",
			exhaustive.Stats.Confirmed, pruned.Stats.Confirmed)
	}
	if !reflect.DeepEqual(pruned.Frontier, exhaustive.Frontier) {
		t.Errorf("pruned frontier (%d) differs from exhaustive frontier (%d)",
			len(pruned.Frontier), len(exhaustive.Frontier))
	}
}

// perCellSearch is the reference for batched confirmation: SearchCtx's
// pipeline with every survivor confirmed by its own core.AnalyzeCtx.
func perCellSearch(base params.Parameters, space Space, cons Constraints) (*Result, error) {
	ctx := context.Background()
	res := &Result{TargetEventsPerPBYear: cons.target()}
	st := &res.Stats
	keys, err := enumerate(ctx, &base, &space, cons, 0, st)
	if err != nil {
		return nil, err
	}
	surv := prune(ctx, keys, res.TargetEventsPerPBYear, st)
	for i, ki := range surv {
		k := &keys[ki]
		cfg := space.config(k.index)
		if i == 0 || space.config(keys[surv[i-1]].index) != cfg {
			st.TopologyGroups++
		}
		r, err := core.AnalyzeCtx(ctx, space.resolve(&base, k.index), cfg, core.MethodExactChain)
		if err != nil {
			return nil, err
		}
		k.exact = r.EventsPerPBYear
		k.confirmed = true
		st.Confirmed++
	}
	res.Frontier = rankFrontier(&base, &space, keys, buildFrontier(keys, surv, res.TargetEventsPerPBYear), res.TargetEventsPerPBYear)
	st.FrontierSize = len(res.Frontier)
	if st.Enumerated > 0 {
		st.PruneRatio = 1 - float64(st.Confirmed)/float64(st.Enumerated)
	}
	return res, nil
}

// Batching is pure mechanism: per-cell confirmation produces the
// bit-identical result.
func TestSearchBatchMatchesPerCell(t *testing.T) {
	base := params.Baseline()
	space := testSpace()
	batched, err := SearchCtx(context.Background(), base, space, Constraints{}, Options{})
	if err != nil {
		t.Fatalf("batched search: %v", err)
	}
	perCell, err := perCellSearch(base, space, Constraints{})
	if err != nil {
		t.Fatalf("per-cell search: %v", err)
	}
	if !reflect.DeepEqual(batched, perCell) {
		t.Error("batched search differs from per-cell confirmation")
	}
}

// Constraints carve the space: a budget excludes expensive candidates,
// a capacity floor excludes small ones, and both surface in the
// infeasible count rather than as errors.
func TestSearchConstraints(t *testing.T) {
	base := params.Baseline()
	space := testSpace()
	free, err := SearchCtx(context.Background(), base, space, Constraints{}, Options{})
	if err != nil {
		t.Fatalf("unconstrained: %v", err)
	}
	budget := float64(base.NodeSetSize) * float64(base.DrivesPerNode) // spares never fit
	capped, err := SearchCtx(context.Background(), base, space, Constraints{MaxCostDrives: budget}, Options{})
	if err != nil {
		t.Fatalf("budget: %v", err)
	}
	if capped.Stats.Infeasible <= free.Stats.Infeasible {
		t.Errorf("budget did not raise infeasible count (%d vs %d)",
			capped.Stats.Infeasible, free.Stats.Infeasible)
	}
	for i, c := range capped.Frontier {
		if c.CostDrives > budget {
			t.Errorf("frontier[%d] cost %g exceeds budget %g", i, c.CostDrives, budget)
		}
		if c.SpareNodes != 0 {
			t.Errorf("frontier[%d] has %d spares under a budget that excludes them", i, c.SpareNodes)
		}
	}
	floor, err := SearchCtx(context.Background(), base, space, Constraints{MinCapacityPB: 0.10}, Options{})
	if err != nil {
		t.Fatalf("capacity floor: %v", err)
	}
	for i, c := range floor.Frontier {
		if c.CapacityPB < 0.10 {
			t.Errorf("frontier[%d] capacity %g below floor", i, c.CapacityPB)
		}
	}
	// Node cost shifts every candidate's cost but not feasibility.
	priced, err := SearchCtx(context.Background(), base, space, Constraints{NodeCostDrives: 3}, Options{})
	if err != nil {
		t.Fatalf("node cost: %v", err)
	}
	for i, c := range priced.Frontier {
		want := float64(c.NodeSetSize) * (float64(base.DrivesPerNode) + 3)
		if c.CostDrives != want {
			t.Errorf("frontier[%d] cost %g, want %g", i, c.CostDrives, want)
		}
	}
}

// Top truncates the ranking without changing what is ranked.
func TestSearchTop(t *testing.T) {
	base := params.Baseline()
	space := testSpace()
	full, err := SearchCtx(context.Background(), base, space, Constraints{}, Options{})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if len(full.Frontier) < 3 {
		t.Skipf("frontier too small (%d) to exercise Top", len(full.Frontier))
	}
	top, err := SearchCtx(context.Background(), base, space, Constraints{}, Options{Top: 2})
	if err != nil {
		t.Fatalf("top: %v", err)
	}
	if len(top.Frontier) != 2 {
		t.Fatalf("Top=2 frontier has %d entries", len(top.Frontier))
	}
	if !reflect.DeepEqual(top.Frontier, full.Frontier[:2]) {
		t.Error("truncated frontier is not a prefix of the full ranking")
	}
	if top.Stats.FrontierSize != full.Stats.FrontierSize {
		t.Errorf("Top changed FrontierSize stat: %d vs %d", top.Stats.FrontierSize, full.Stats.FrontierSize)
	}
}

// Invalid inputs fail fast with plan-attributed errors.
func TestSearchValidation(t *testing.T) {
	base := params.Baseline()
	cases := []struct {
		name  string
		space Space
		cons  Constraints
	}{
		{"empty space", Space{}, Constraints{}},
		{"bad ft", Space{Internals: []core.InternalRedundancy{core.InternalNone}, FaultTolerances: []int{0},
			RedundancySetSizes: []int{8}, SpareNodes: []int{0}, Utilizations: []float64{0.5}, RebuildBytes: []float64{1 * params.MiB}}, Constraints{}},
		{"bad util", Space{Internals: []core.InternalRedundancy{core.InternalNone}, FaultTolerances: []int{1},
			RedundancySetSizes: []int{8}, SpareNodes: []int{0}, Utilizations: []float64{1.5}, RebuildBytes: []float64{1 * params.MiB}}, Constraints{}},
		{"negative target", testSpace(), Constraints{TargetEventsPerPBYear: -1}},
		{"negative budget", testSpace(), Constraints{MaxCostDrives: -5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := SearchCtx(context.Background(), base, tc.space, tc.cons, Options{}); err == nil {
				t.Error("search unexpectedly succeeded")
			}
		})
	}
	bad := base
	bad.NodeMTTFHours = -1
	if _, err := SearchCtx(context.Background(), bad, testSpace(), Constraints{}, Options{}); err == nil {
		t.Error("invalid base parameters unexpectedly accepted")
	}
}

// A cancelled context stops the search promptly with ctx.Err().
func TestSearchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SearchCtx(ctx, params.Baseline(), testSpace(), Constraints{}, Options{}); err != context.Canceled {
		t.Fatalf("cancelled search error = %v, want context.Canceled", err)
	}
}

// dominancePrune against the O(n²) definition on randomized candidates:
// exactly the same set is marked dominated. The small trials keep every
// candidate; the large ones have the stock space's shape — thousands of
// candidates over at most four distinct costs, with many equal
// capacities and bounds — and keep a random subset, so kept positions
// and candidate indices differ.
func TestDominancePruneMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(trial int, cands []Candidate, kept []int) {
		t.Helper()
		got := dominancePrune(keysOf(cands), kept)
		for pb, b := range kept {
			want := false
			for _, a := range kept {
				if a != b && cands[a].CostDrives <= cands[b].CostDrives &&
					cands[a].CapacityPB >= cands[b].CapacityPB &&
					cands[a].BoundEventsPerPBYear*GuardBand < cands[b].BoundEventsPerPBYear/GuardBand {
					want = true
					break
				}
			}
			if got[pb] != want {
				t.Fatalf("trial %d: candidate %d dominated=%v, brute force says %v", trial, b, got[pb], want)
			}
		}
	}
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(120)
		cands := make([]Candidate, n)
		kept := make([]int, n)
		for i := range cands {
			cands[i] = Candidate{
				Index: i,
				// Few distinct costs and capacities so equal-value
				// groups (the subtle paths) occur constantly.
				CostDrives:           float64(1 + rng.Intn(4)),
				CapacityPB:           float64(1+rng.Intn(5)) / 4,
				BoundEventsPerPBYear: math.Exp(rng.Float64()*20 - 10),
			}
			kept[i] = i
		}
		check(trial, cands, kept)
	}
	for trial := 20; trial < 26; trial++ {
		n := 2000 + rng.Intn(2001)
		costs := 1 + rng.Intn(4)
		cands := make([]Candidate, n)
		var kept []int
		for i := range cands {
			cands[i] = Candidate{
				Index:                i,
				CostDrives:           768 + 96*float64(rng.Intn(costs)),
				CapacityPB:           float64(1+rng.Intn(40)) / 100,
				BoundEventsPerPBYear: math.Exp(float64(rng.Intn(60))/3 - 10),
			}
			if rng.Intn(10) != 0 {
				kept = append(kept, i)
			}
		}
		check(trial, cands, kept)
	}
	// Stock-shaped rows: runs of consecutive candidates with equal cost
	// and capacity and different bounds (the rebuild-size axis), with
	// the same (cost, capacity) pair recurring in separate runs, and a
	// kept subset that splits some runs.
	for trial := 26; trial < 32; trial++ {
		var cands []Candidate
		var kept []int
		for len(cands) < 1500+rng.Intn(1500) {
			cost := 768 + 96*float64(rng.Intn(4))
			capacity := float64(1+rng.Intn(30)) / 100
			for j, n := 0, 1+rng.Intn(6); j < n; j++ {
				i := len(cands)
				cands = append(cands, Candidate{
					Index:                i,
					CostDrives:           cost,
					CapacityPB:           capacity,
					BoundEventsPerPBYear: math.Exp(float64(rng.Intn(60))/3 - 10),
				})
				if rng.Intn(8) != 0 {
					kept = append(kept, i)
				}
			}
		}
		check(trial, cands, kept)
	}
}

// keysOf lays candidates out as search keys, position for position,
// ranking their costs as enumeration does.
func keysOf(cands []Candidate) []key {
	var levels []float64
	for _, c := range cands {
		levels = append(levels, c.CostDrives)
	}
	slices.Sort(levels)
	levels = slices.Compact(levels)
	keys := make([]key, len(cands))
	for i, c := range cands {
		r, _ := slices.BinarySearch(levels, c.CostDrives)
		keys[i] = key{index: c.Index, cost: c.CostDrives, capacity: c.CapacityPB,
			bound: c.BoundEventsPerPBYear, exact: c.ExactEventsPerPBYear, costRank: int32(r), confirmed: c.Confirmed}
	}
	return keys
}

// buildFrontier against the O(n²) strict-Pareto definition on
// randomized survivors: few distinct costs, capacities and events, so
// identical (cost, capacity, events) triples, unconfirmed survivors and
// survivors missing the target all occur. The frontier is the same set,
// in (capacity ↓, cost ↑, events ↑, index ↑) order.
func TestBuildFrontierMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const target = 4
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		if trial%8 == 7 {
			n = 2000 + rng.Intn(2000)
		}
		keys := make([]key, n)
		var surv []int
		for i := range keys {
			rank := rng.Intn(5)
			keys[i] = key{
				index:     i,
				cost:      float64(1 + rank),
				capacity:  float64(1+rng.Intn(6)) / 4,
				exact:     float64(1 + rng.Intn(5)),
				costRank:  int32(rank),
				confirmed: rng.Intn(6) != 0,
			}
			if rng.Intn(5) != 0 {
				surv = append(surv, i)
			}
		}
		got := buildFrontier(keys, surv, target)

		var want []int
		for _, b := range surv {
			kb := &keys[b]
			if !kb.confirmed || !(kb.exact < target) {
				continue
			}
			dominated := false
			for _, a := range surv {
				ka := &keys[a]
				if !ka.confirmed || !(ka.exact < target) {
					continue
				}
				if ka.cost <= kb.cost && ka.capacity >= kb.capacity && ka.exact <= kb.exact &&
					(ka.cost < kb.cost || ka.capacity > kb.capacity || ka.exact < kb.exact) {
					dominated = true
					break
				}
			}
			if !dominated {
				want = append(want, b)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			a, b := &keys[want[i]], &keys[want[j]]
			if a.capacity != b.capacity {
				return a.capacity > b.capacity
			}
			if a.cost != b.cost {
				return a.cost < b.cost
			}
			if a.exact != b.exact {
				return a.exact < b.exact
			}
			return a.index < b.index
		})
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d (%d survivors): frontier %v, brute force %v", trial, len(surv), got, want)
		}
	}
}

// rankCandidates is a total order: shuffled input always lands in the
// same sequence.
func TestRankCandidatesTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := make([]Candidate, 30)
	for i := range cs {
		cs[i] = Candidate{
			Index:                i,
			ExactEventsPerPBYear: float64(rng.Intn(4)),
			CostDrives:           float64(rng.Intn(3)),
			CapacityPB:           float64(rng.Intn(3)),
		}
	}
	ref := append([]Candidate(nil), cs...)
	rankCandidates(ref)
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Candidate(nil), cs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		rankCandidates(shuffled)
		if !reflect.DeepEqual(shuffled, ref) {
			t.Fatalf("trial %d: ranking depends on input order", trial)
		}
	}
	if !sort.SliceIsSorted(ref, func(i, j int) bool { return ref[i].ExactEventsPerPBYear < ref[j].ExactEventsPerPBYear }) {
		// Ties exist by construction; just confirm primary key ordering.
		for i := 1; i < len(ref); i++ {
			if ref[i-1].ExactEventsPerPBYear > ref[i].ExactEventsPerPBYear {
				t.Fatal("ranking violates the primary key")
			}
		}
	}
}

// The enumeration kernel is core.ClosedForm, the evaluation behind
// core.AnalyzeCtx's closed-form branch: over every stock candidate, at
// three jittered bases and under a budget and a capacity floor with a
// node cost, it returns the same MTTDL, events and capacity bit for bit
// (or the same error), and enumerate keeps exactly the candidates a
// per-candidate core.AnalyzeCtx walk would, with the same keys.
func TestEnumerateMatchesAnalyze(t *testing.T) {
	base := params.Baseline()
	cases := []struct {
		name string
		base params.Parameters
		cons Constraints
	}{
		{"jitter_a", jittered(0.62, 1.37), Constraints{}},
		{"jitter_b", jittered(1.41, 0.71), Constraints{}},
		{"jitter_c", jittered(0.93, 0.58), Constraints{}},
		{"budget", base, Constraints{MaxCostDrives: float64(base.NodeSetSize+8) * float64(base.DrivesPerNode)}},
		{"floor_nodecost", base, Constraints{MinCapacityPB: 0.2, NodeCostDrives: 2.5}},
		// Ten nodes: without spares the wide stripes exceed the node set,
		// so the kernel itself rejects candidates.
		{"small_node_set", func() params.Parameters { p := base; p.NodeSetSize = 10; return p }(), Constraints{}},
	}
	ctx := context.Background()
	space := DefaultSpace()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	kernelErrs := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			got, err := enumerate(ctx, &tc.base, &space, tc.cons, 2, &st)
			if err != nil {
				t.Fatal(err)
			}
			var (
				want       []key
				infeasible int
				tl         rebuild.Tally
			)
			for i := 0; i < space.Size(); i++ {
				cfg, p := space.config(i), space.resolve(&tc.base, i)
				est, kerr := core.ClosedForm(&p, cfg, &tl)
				res, aerr := core.AnalyzeCtx(ctx, p, cfg, core.MethodClosedForm)
				if (kerr == nil) != (aerr == nil) || (kerr != nil && kerr.Error() != aerr.Error()) {
					t.Fatalf("candidate %d: kernel error %v, AnalyzeCtx error %v", i, kerr, aerr)
				}
				if kerr != nil {
					kernelErrs++
				}
				if aerr == nil && !(same(est.MTTDLHours, res.MTTDLHours) && same(est.EventsPerPBYear, res.EventsPerPBYear) &&
					same(est.LogicalCapacityPB, res.LogicalCapacityPB)) {
					t.Fatalf("candidate %d: kernel %+v, AnalyzeCtx %v/%v/%v", i, est,
						res.MTTDLHours, res.EventsPerPBYear, res.LogicalCapacityPB)
				}
				cost := float64(p.NodeSetSize) * (float64(p.DrivesPerNode) + tc.cons.NodeCostDrives)
				if aerr != nil || (tc.cons.MaxCostDrives > 0 && cost > tc.cons.MaxCostDrives) ||
					(tc.cons.MinCapacityPB > 0 && res.LogicalCapacityPB < tc.cons.MinCapacityPB) {
					infeasible++
					continue
				}
				// The stock spare levels are distinct and ascending, so a
				// candidate's cost rank is its spare level's position.
				rank := slices.Index(space.SpareNodes, p.NodeSetSize-tc.base.NodeSetSize)
				want = append(want, key{index: i, cost: cost, capacity: res.LogicalCapacityPB, bound: res.EventsPerPBYear,
					costRank: int32(rank)})
			}
			tl.Flush(context.Background())
			if st.Enumerated != space.Size() || st.Infeasible != infeasible {
				t.Errorf("enumerated %d, infeasible %d; want %d, %d", st.Enumerated, st.Infeasible, space.Size(), infeasible)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("enumerate keeps %d candidates, the per-candidate walk %d, or their keys differ", len(got), len(want))
			}
			if tc.cons != (Constraints{}) && infeasible == 0 {
				t.Error("no infeasible candidate: the constraints do not bind")
			}
		})
	}
	if kernelErrs == 0 {
		t.Error("no candidate failed the kernel: its feasibility decisions went unexercised")
	}
}

// stockSearchBytes bounds the bytes one workers-1 search of the stock
// space allocates. It was 2.5 MB while the enumeration slab held a full
// Candidate per slot; with the pointer-free key slab, pooled
// confirmation scratch and Candidates built for frontier members only,
// a search allocates about 0.85 MB.
const stockSearchBytes = 1 << 20

// The search's allocation volume is a noise-free performance gate: it
// does not depend on the machine's speed or load, only on the code.
func TestSearchStockAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	space := DefaultSpace()
	bases := stockBases(8)
	search := func(p params.Parameters) {
		if _, err := SearchCtx(context.Background(), p, space, Constraints{}, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	search(bases[0]) // warm the solver pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range bases {
		search(p)
	}
	runtime.ReadMemStats(&after)
	perSearch := (after.TotalAlloc - before.TotalAlloc) / uint64(len(bases))
	t.Logf("%d bytes per stock search", perSearch)
	if perSearch > stockSearchBytes {
		t.Errorf("a stock search allocates %d bytes, want at most %d", perSearch, stockSearchBytes)
	}
}

// Cost ranks order costs whatever order the spare levels are spelled
// in, repeats included: equal costs share a rank and a cheaper
// candidate has a lower rank, as the prune and the frontier assume.
func TestEnumerateCostRanks(t *testing.T) {
	base := params.Baseline()
	space := testSpace()
	space.SpareNodes = []int{16, 0, 16, 8}
	var st Stats
	keys, err := enumerate(context.Background(), &base, &space, Constraints{NodeCostDrives: 1.5}, 1, &st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		for j := range keys {
			a, b := &keys[i], &keys[j]
			if (a.cost < b.cost) != (a.costRank < b.costRank) || (a.cost == b.cost) != (a.costRank == b.costRank) {
				t.Fatalf("costs %v, %v have ranks %d, %d", a.cost, b.cost, a.costRank, b.costRank)
			}
		}
	}
}
