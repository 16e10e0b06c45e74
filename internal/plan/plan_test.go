package plan

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
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
	cands, err := enumerate(ctx, base, space, cons, 0, st)
	if err != nil {
		return nil, err
	}
	surv := prune(ctx, cands, res.TargetEventsPerPBYear, st)
	for i, ci := range surv {
		c := &cands[ci]
		if i == 0 || cands[surv[i-1]].Config() != c.Config() {
			st.TopologyGroups++
		}
		r, err := core.AnalyzeCtx(ctx, c.resolve(base), c.Config(), core.MethodExactChain)
		if err != nil {
			return nil, err
		}
		c.ExactEventsPerPBYear = r.EventsPerPBYear
		c.MarginVsTarget = res.TargetEventsPerPBYear / r.EventsPerPBYear
		c.Confirmed = true
		st.Confirmed++
	}
	res.Frontier = buildFrontier(cands, surv, res.TargetEventsPerPBYear)
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
		got := dominancePrune(cands, kept)
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
