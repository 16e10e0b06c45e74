package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/linalg/sparse"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// scalarChunk is the reference the lane blocks must reproduce: the
// one-cell chunk loop on a no-internal-RAID configuration. Cell by cell
// it preps, emits and fills, then solves and guards, up to the first
// failing cell, on an unpooled solver, and reports like the chunk body:
// the chunk span opens at the first filled cell and counts the cells
// reached.
func scalarChunk(ctx context.Context, cfg Config, ps []params.Parameters, out []Result) (int, error) {
	preps := make([]analysisPrep, len(ps))
	bs := markov.NewBatchSolver()
	var (
		tl      rebuild.Tally
		nir     *model.NIRRefiller
		end     func(int)
		reached int
	)
	defer tl.Flush(ctx)
	defer func() {
		if end != nil {
			end(reached)
		}
	}()
	for i := range ps {
		if err := analyzePrep(&preps[i], &ps[i], cfg, &tl); err != nil {
			return i, err
		}
		if nir == nil {
			nir = model.AcquireNIRRefiller(preps[i].nir, preps[i].k)
			defer nir.Release()
			if err := bs.Bind(ctx, nir.Chain()); err != nil {
				return 0, chainSolveError(true, err)
			}
			bs.Cells(2)
			if err := bs.BindProgram(nir.Program(), nir.Classes()); err != nil {
				return 0, chainSolveError(true, err)
			}
		}
		// Alternate slab cells, so a failing fill leaves the row of the
		// cell solved before it to the chunk's residual.
		if err := bs.FillRates(i%2, nir.Emit(nil, preps[i].nir)); err != nil {
			return i, chainSolveError(true, err)
		}
		if end == nil {
			end = bs.StartChunk(ctx)
		}
		reached = i + 1
		mtta, err := bs.SolveCell(i % 2)
		if err != nil {
			return i, chainSolveError(true, err)
		}
		est, err := estimate(&ps[i], cfg, mtta)
		if err != nil {
			return i, err
		}
		out[i] = preps[i].result(&ps[i], cfg, MethodExactChain, est)
	}
	return -1, nil
}

// laneBadCells are parameter sets on which a no-internal-RAID ft 5
// chain (63 transient states, the sparse route) fails one of the
// checks a lane must leave to the one-cell path: node and drive
// lifetimes (hours), or a redundancy set too small for ft 5 to prep.
// Lifetimes of 10^20 hours and more make the failure rates vanish
// against the repair rates in the exit sums, so the static pivots
// cancel or the solve loses all accuracy.
var laneBadCells = []struct {
	name           string
	nodeMTTF, mttf float64
	redundancy     int  // RedundancySetSize when nonzero
	fallback       bool // the sparse solve falls back to dense
	fails          bool // the cell fails
}{
	{"zero pivot, dense singular", 1e20, 1e80, 0, true, true},
	{"zero pivot, dense unusable", 1e40, 1e80, 0, true, true},
	{"implausible τ, dense usable", 1e40, 1e40, 0, true, false},
	{"implausible τ, dense unusable", 1e20, 1e20, 0, true, true},
	{"NaN τ, dense usable", 1e200, 1e200, 0, true, false},
	{"no outgoing transitions", math.Inf(1), math.Inf(1), 0, false, true},
	{"absorption unreachable", math.NaN(), 1e5, 0, false, true},
	{"prep error", 1.5e5, 5e4, 5, false, true},
}

// laneCells returns n good ft 5 cells with distinct drive lifetimes.
func laneCells(n int) []params.Parameters {
	ps := make([]params.Parameters, n)
	for i := range ps {
		ps[i] = deepBase()
		ps[i].DriveMTTFHours = 20_000 * (1 + 0.3*float64(i))
	}
	return ps
}

// chunkOutcome is what one chunk run reports and records.
type chunkOutcome struct {
	row      int
	err      string
	results  []Result
	counters map[string]int64
	residual uint64
}

// runChunk runs ps through chunk under a fresh registry.
func runChunk(cfg Config, ps []params.Parameters, chunk func(context.Context, Config, []params.Parameters, []Result) (int, error)) chunkOutcome {
	reg := obs.NewRegistry()
	ctx, end := meteredCtx(reg)
	out := make([]Result, len(ps))
	row, err := chunk(ctx, cfg, ps, out)
	end()
	o := chunkOutcome{row: row, results: out, counters: map[string]int64{}}
	if err != nil {
		o.err = err.Error()
		o.results = out[:row]
	}
	for _, name := range []string{
		"markov.absorption.solves", "markov.sparse.solves", "markov.sparse.dense_fallbacks",
		"markov.batch.cells", "markov.batch.chunks", "rebuild.computes",
	} {
		o.counters[name] = reg.Counter(name).Value()
	}
	o.residual = math.Float64bits(reg.Gauge("markov.absorption.last_residual").Value())
	return o
}

// The chunk body's lane blocks against the one-cell loop: every chunk
// length from 1 to 9 (every remainder of a four-cell block), and a
// failing cell of every kind at every cell of a nine-cell chunk — every
// lane position of its fill blocks (cells 1–4, 5–8) and solve blocks
// (cells 0–3, 4–7) — report the same lowest failing cell and error,
// bit-identical results before it, the same solve, sparse, fallback,
// chunk and rate-computation counts — no lane past a failing cell
// counted — and a bit-identical last residual.
func TestChunkLanesMatchScalarLoop(t *testing.T) {
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 5}
	type chunkCase struct {
		name string
		ps   []params.Parameters
		bad  int // laneBadCells index, or -1
	}
	var cases []chunkCase
	for n := 1; n <= 9; n++ {
		cases = append(cases, chunkCase{fmt.Sprintf("%d good cells", n), laneCells(n), -1})
	}
	for k, bad := range laneBadCells {
		for pos := 0; pos < 9; pos++ {
			ps := laneCells(9)
			ps[pos].NodeMTTFHours, ps[pos].DriveMTTFHours = bad.nodeMTTF, bad.mttf
			if bad.redundancy != 0 {
				ps[pos].RedundancySetSize = bad.redundancy
			}
			cases = append(cases, chunkCase{fmt.Sprintf("%s at cell %d", bad.name, pos), ps, k})
		}
	}
	lanes := func(ctx context.Context, cfg Config, ps []params.Parameters, out []Result) (int, error) {
		return new(batchChunk).analyze(ctx, cfg, MethodExactChain, ps, out)
	}
	for _, c := range cases {
		want := runChunk(cfg, c.ps, scalarChunk)
		got := runChunk(cfg, c.ps, lanes)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: lane blocks report\n  %+v\nthe one-cell loop\n  %+v", c.name, got, want)
		}
		if c.bad < 0 {
			if want.err != "" || want.counters["markov.sparse.solves"] != int64(len(c.ps)) {
				t.Fatalf("%s: reference %q with %d sparse solves; the good cells must solve on the sparse route", c.name, want.err, want.counters["markov.sparse.solves"])
			}
			continue
		}
		bad := laneBadCells[c.bad]
		if fell := want.counters["markov.sparse.dense_fallbacks"] > 0; fell != bad.fallback {
			t.Fatalf("%s: reference dense fallbacks %d, want fallback %v", c.name, want.counters["markov.sparse.dense_fallbacks"], bad.fallback)
		}
		if failed := want.err != ""; failed != bad.fails {
			t.Fatalf("%s: reference error %q, want failure %v", c.name, want.err, bad.fails)
		}
	}
}

// A NaN in a sparse solve's τ certifies nothing: NIR ft 5 with node and
// drive lifetimes of 10^200 hours solves to a NaN τ on the sparse
// route, and the one-cell path and the lane blocks must both hand every
// such cell to the dense fallback, whose MTTDL (≈2.15e213 h) they then
// report bit for bit as the dense route alone does.
func TestNaNTauFallsBackToDense(t *testing.T) {
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 5}
	p := deepBase()
	p.NodeMTTFHours, p.DriveMTTFHours = 1e200, 1e200
	prev := markov.SetSparseMinStates(1 << 30)
	dense, err := AnalyzeCtx(context.Background(), p, cfg, MethodExactChain)
	markov.SetSparseMinStates(prev)
	if err != nil {
		t.Fatalf("dense route: %v", err)
	}
	if r := dense.MTTDLHours / 2.15e213; r < 0.99 || r > 1.01 {
		t.Fatalf("dense route MTTDL %g, want ≈2.15e213 h", dense.MTTDLHours)
	}
	lanes := func(ctx context.Context, cfg Config, ps []params.Parameters, out []Result) (int, error) {
		return new(batchChunk).analyze(ctx, cfg, MethodExactChain, ps, out)
	}
	for _, n := range []int{1, 2 * sparse.Lanes} {
		ps := make([]params.Parameters, n)
		for i := range ps {
			ps[i] = p
		}
		o := runChunk(cfg, ps, lanes)
		if o.err != "" {
			t.Fatalf("%d cells: %s", n, o.err)
		}
		if got := o.counters["markov.sparse.dense_fallbacks"]; got != int64(n) {
			t.Errorf("%d cells: %d dense fallbacks, want %d", n, got, n)
		}
		for i, r := range o.results {
			if math.Float64bits(r.MTTDLHours) != math.Float64bits(dense.MTTDLHours) {
				t.Errorf("%d cells: cell %d MTTDL %g, dense route %g", n, i, r.MTTDLHours, dense.MTTDLHours)
			}
		}
	}
}

// A chunk binds with its first block's first emission, so a whole
// 256-cell NIR chunk on the sparse route runs as 64 lane blocks: it
// takes no one-cell solve, and it reports bit for bit what the one-cell
// loop reports.
func TestChunkBindsInFirstBlock(t *testing.T) {
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 5}
	ps := laneCells(chunkCells)
	bc := new(batchChunk)
	lanes := func(ctx context.Context, cfg Config, ps []params.Parameters, out []Result) (int, error) {
		return bc.analyze(ctx, cfg, MethodExactChain, ps, out)
	}
	want := runChunk(cfg, ps, scalarChunk)
	got := runChunk(cfg, ps, lanes)
	if want.err != "" || want.counters["markov.sparse.solves"] != chunkCells {
		t.Fatalf("reference %q with %d sparse solves; the cells must solve on the sparse route", want.err, want.counters["markov.sparse.solves"])
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lane blocks report\n  %+v\nthe one-cell loop\n  %+v", got, want)
	}
	if bc.cellSolves != 0 {
		t.Errorf("a %d-cell chunk took %d one-cell solves, want 0", chunkCells, bc.cellSolves)
	}
}
