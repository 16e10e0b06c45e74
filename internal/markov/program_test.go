package markov_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/linalg/sparse"
	"repro/internal/markov"
	"repro/internal/model"
)

// laneInputs are NIR inputs at fault tolerance k whose drive lifetime
// varies with x.
func laneInputs(x float64) closedform.NIRInputs {
	return closedform.NIRInputs{
		N: 64, R: 48, D: 12,
		LambdaN: 1 / 1.5e5, LambdaD: 1 / (2e4 * (1 + x)), MuN: 0.05, MuD: 0.2,
		CHER: 1e-4,
	}
}

// bindNIR binds a solver to the NIR chain of fault tolerance k and its
// rate-class program, as a chunk does.
func bindNIR(t *testing.T, k int) (*markov.BatchSolver, *model.NIRRefiller) {
	t.Helper()
	r := model.AcquireNIRRefiller(laneInputs(0), k)
	t.Cleanup(r.Release)
	b := markov.NewBatchSolver()
	if err := b.Bind(context.Background(), r.Chain()); err != nil {
		t.Fatalf("k=%d Bind: %v", k, err)
	}
	if err := b.BindProgram(r.Program(), r.Classes()); err != nil {
		t.Fatalf("k=%d BindProgram: %v", k, err)
	}
	return b, r
}

// The lane program of the NIR chain's class map shares its operations:
// the distinct divides and updates of the elimination, the distinct
// values among its factor slots and the solve's divides and pushes over
// the entries that can be nonzero are pinned, so a change that loses
// the sharing fails here, not only in a benchmark. Without sharing the
// elimination has 2^(k+1)−2 divides and as many updates.
func TestLaneProgramCounts(t *testing.T) {
	for _, tc := range []struct {
		k    int
		want sparse.ProgramStats
	}{
		{5, sparse.ProgramStats{Divides: 30, Updates: 42, FactorValues: 61, SolveDivides: 6, Pushes: 67}},
		{7, sparse.ProgramStats{Divides: 56, Updates: 86, FactorValues: 111, SolveDivides: 8, Pushes: 261}},
		{10, sparse.ProgramStats{Divides: 110, Updates: 182, FactorValues: 216, SolveDivides: 11, Pushes: 2056}},
	} {
		b, _ := bindNIR(t, tc.k)
		got, ok := b.LaneStats()
		if !ok {
			t.Fatalf("k=%d: no lane program bound", tc.k)
		}
		if got != tc.want {
			t.Errorf("k=%d: lane program counts %+v, want %+v", tc.k, got, tc.want)
		}
	}
}

// laneSpecials are the class values a lane block must treat exactly as
// the one-cell path does.
var laneSpecials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e-300, 1e300, -1}

// refillFill refills r's chain with the class values vals — expanded
// through its class map and loaded by ApplyRates, as Refill loads its
// own — and fills the chain into ref's cell 0, returning Fill's error.
func refillFill(ref *markov.BatchSolver, r *model.NIRRefiller, vals []float64) error {
	rates := make([]float64, len(r.Classes()))
	for i, c := range r.Classes() {
		rates[i] = vals[c]
	}
	r.Chain().ApplyRates(r.Program(), rates)
	return ref.Fill(0, r.Chain())
}

// fillFails reports whether refillFill fails, by error or panic.
func fillFails(ref *markov.BatchSolver, r *model.NIRRefiller, vals []float64) (failed bool) {
	defer func() {
		if recover() != nil {
			failed = true
		}
	}()
	return refillFill(ref, r, vals) != nil
}

// Lane blocks over the NIR chain's rate-class map at k = 5–10 are the
// one-cell path bit for bit: Solve's lane fill passes exactly when Fill
// accepts every lane's refilled chain; a lane the program commits has
// SolveCell's MTTA bit for bit, solved on the sparse route; the first
// lane it does not commit is one whose sparse route SolveCell rejects
// (a zero pivot or an implausible τ, where it falls back to dense) or
// keeps at an MTTA that is not positive and finite. The lanes' class
// values vary the drive lifetime and, in most blocks, put ±0, NaN,
// ±Inf, a subnormal, 1e±300 or a negative value into random classes of
// random lanes.
func TestLanesMatchScalarOnNIRClassMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for k := 5; k <= 10; k++ {
		b, r := bindNIR(t, k)
		ref, _ := bindNIR(t, k)
		committed, rejected := 0, 0
		for trial := 0; trial < 24; trial++ {
			vals := make([][]float64, sparse.Lanes)
			for l := range vals {
				vals[l] = r.Emit(nil, laneInputs(rng.Float64()*9))
			}
			for i := 0; i < trial%4; i++ {
				l, c := rng.Intn(sparse.Lanes), rng.Intn(len(vals[0]))
				vals[l][c] = laneSpecials[rng.Intn(len(laneSpecials))]
			}
			name := fmt.Sprintf("k=%d trial %d", k, trial)
			fills := true
			for _, v := range vals {
				if fillFails(ref, r, v) {
					fills = false
				}
			}
			got, mtta, n := b.LaneBlock(vals)
			if got != fills {
				t.Fatalf("%s: lane fill %v, Fill accepts every lane: %v", name, got, fills)
			}
			if !fills {
				continue
			}
			for l := 0; l <= n && l < sparse.Lanes; l++ {
				if err := refillFill(ref, r, vals[l]); err != nil {
					t.Fatalf("%s lane %d: Fill: %v", name, l, err)
				}
				v, kept := ref.SparseSolve(0)
				if l < n {
					committed++
					if !kept || math.Float64bits(v) != math.Float64bits(mtta[l]) {
						t.Fatalf("%s lane %d: committed MTTA %v, sparse route %v (kept %v)", name, l, mtta[l], v, kept)
					}
					continue
				}
				rejected++
				if kept && v > 0 && v < math.Inf(1) {
					t.Fatalf("%s lane %d: rejected, but the sparse route keeps it at %v", name, l, v)
				}
			}
		}
		if committed == 0 || rejected == 0 {
			t.Errorf("k=%d: %d lanes committed, %d rejected; the test needs both", k, committed, rejected)
		}
	}
}

// The lanes reject a lane whose sparse τ is implausible even when its
// sum is a usable MTTA, as the one-cell path does: ft 5 NIR class
// vectors with a few classes scaled by up to 10^±40 reach that case. As
// the fourth lane after three ordinary ones it is the first lane the
// program does not commit, and Solve reports the one-cell path's MTTA
// for it, the dense fallback's.
func TestLanesRejectImplausibleTau(t *testing.T) {
	b, r := bindNIR(t, 5)
	ref, _ := bindNIR(t, 5)
	rng := rand.New(rand.NewSource(30))
	found := 0
	for trial := 0; trial < 20000 && found < 3; trial++ {
		v := r.Emit(nil, laneInputs(rng.Float64()*9))
		for range 1 + rng.Intn(4) {
			v[rng.Intn(len(v))] *= math.Pow(10, float64(rng.Intn(81)-40))
		}
		if refillFill(ref, r, v) != nil {
			continue
		}
		if m, kept := ref.SparseSolve(0); kept || !(m > 0 && m < math.Inf(1)) {
			continue
		}
		found++
		want, err := ref.SolveCell(0)
		if err != nil {
			t.Fatalf("trial %d: SolveCell: %v", trial, err)
		}
		vals := [][]float64{r.Emit(nil, laneInputs(1)), r.Emit(nil, laneInputs(2)), r.Emit(nil, laneInputs(3)), v}
		if fills, _, n := b.LaneBlock(vals); !fills || n != 3 {
			t.Fatalf("trial %d: lane fill %v with %d lanes committed; want the fourth lane rejected", trial, fills, n)
		}
		mtta, n, err := b.Solve(vals)
		if n != sparse.Lanes || err != nil || math.Float64bits(mtta[3]) != math.Float64bits(want) {
			t.Fatalf("trial %d: Solve solved %d (%v), fourth MTTA %v; the one-cell path %v", trial, n, err, mtta[3], want)
		}
	}
	if found == 0 {
		t.Fatal("no class vector reached an implausible τ with a usable MTTA")
	}
}

// A 256-cell chunk of ft 5 NIR cells at ordinary rates (63 transient
// states, the sparse route) runs as 64 Solve calls that each solve all
// four cells in the lane program, with no one-cell solve, and agree bit
// for bit with the one-cell path.
func TestSolveRunsWholeChunkInLanes(t *testing.T) {
	b, r := bindNIR(t, 5)
	ref, _ := bindNIR(t, 5)
	vals := make([][]float64, sparse.Lanes)
	for i := 0; i < 256; i += sparse.Lanes {
		for l := range vals {
			vals[l] = r.Emit(vals[l], laneInputs(float64(i+l)/32))
		}
		mtta, n, err := b.Solve(vals)
		if n != sparse.Lanes || err != nil || !b.SolvedInLanes() {
			t.Fatalf("cells %d–%d: Solve solved %d (%v), in lanes: %v", i, i+3, n, err, b.SolvedInLanes())
		}
		for l, v := range vals {
			if err := refillFill(ref, r, v); err != nil {
				t.Fatalf("cell %d: Fill: %v", i+l, err)
			}
			want, err := ref.SolveCell(0)
			if err != nil || math.Float64bits(want) != math.Float64bits(mtta[l]) {
				t.Fatalf("cell %d: Solve %v, SolveCell %v (%v)", i+l, mtta[l], want, err)
			}
		}
	}
}

// The fill's reachability memo agrees with a fresh search over random
// sets of positive classes of the NIR class map, the empty set and
// every single class included, at every fault tolerance the service
// accepts; every set is asked twice, so both the search and the memo
// answer. A class outside the set is +0, -0 or NaN.
func TestReachMemoMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for k := 1; k <= 10; k++ {
		b, r := bindNIR(t, k)
		nclass := len(r.Emit(nil, laneInputs(0)))
		masks := []uint64{0}
		for c := 0; c < nclass; c++ {
			masks = append(masks, 1<<uint(c))
		}
		for i := 0; i < 200; i++ {
			masks = append(masks, rng.Uint64()&(1<<uint(nclass)-1))
		}
		zeros := []float64{0, math.Copysign(0, -1), math.NaN()}
		vals := make([]float64, nclass)
		for _, mask := range masks {
			for c := range vals {
				vals[c] = zeros[rng.Intn(len(zeros))]
				if mask&(1<<uint(c)) != 0 {
					vals[c] = 0.5 + rng.Float64()
				}
			}
			for range 2 {
				if fill, search := b.ReachVerdicts(vals); fill != search {
					t.Fatalf("k=%d mask %#x: memo says %v, search %v", k, mask, fill, search)
				}
			}
		}
	}
}
