package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/closedform"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// sweepChunked runs a buffered sweep on workers goroutines in chunks of
// at most chunk cells.
func sweepChunked(p params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers, chunk int) ([]SweepPoint, error) {
	return sweepGrid(context.Background(), p, cfgs, method, xs, apply, workers, chunk)
}

// meteredCtx returns a context whose span folds into reg — the shape a
// request or a CLI run hands the solver stack — and the span's end.
func meteredCtx(reg *obs.Registry) (context.Context, func()) {
	tr := obs.NewTracer()
	tr.SetFold(obs.NewSpanFolder(reg))
	ctx, root := tr.Start(context.Background(), "test")
	return ctx, root.End
}

// referenceAnalyze is the reference the engine must reproduce, built
// without it: the shared prep, then a freshly built chain solved by the
// per-call markov.MTTA for the exact chain, or a direct closedform call
// for the other methods, then the usability guard.
func referenceAnalyze(p params.Parameters, cfg Config, method Method) (Result, error) {
	var (
		pr analysisPrep
		tl rebuild.Tally
	)
	if err := analyzePrep(&pr, &p, cfg, &tl); err != nil {
		return Result{}, err
	}
	nir := cfg.Internal == InternalNone
	var mttdl float64
	switch {
	case method == MethodExactChain:
		ch, err := Chain(p, cfg)
		if err != nil {
			return Result{}, err
		}
		if mttdl, err = markov.MTTA(context.Background(), ch); err != nil {
			family := "IR"
			if nir {
				family = "NIR"
			}
			return Result{}, fmt.Errorf("core: solving %s chain: %w", family, err)
		}
	case method == MethodClosedForm && nir:
		mttdl = closedform.NIRMTTDLGeneral(pr.nir, pr.k)
	case method == MethodClosedForm:
		mttdl = closedform.IRMTTDL(pr.ir, pr.k)
	case method == MethodExactStable && nir:
		mttdl = closedform.NIRMTTDLRecursive(pr.nir, pr.k)
	default:
		mttdl = closedform.IRMTTDLExact(pr.ir, pr.k)
	}
	est, err := estimate(&p, cfg, mttdl)
	if err != nil {
		return Result{}, err
	}
	return pr.result(&p, cfg, method, est), nil
}

// perCellSweep is the reference sweep: a serial loop of referenceAnalyze
// over the grid in sweep order (x, then configuration), reporting the
// first failing cell's error with its sweep position.
func perCellSweep(p params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64)) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(xs))
	for i, x := range xs {
		out[i] = SweepPoint{X: x, Results: make([]Result, len(cfgs))}
		q := p
		apply(&q, x)
		for ci, cfg := range cfgs {
			r, err := referenceAnalyze(q, cfg, method)
			if err != nil {
				return nil, sweepCellError(x, cfg, err)
			}
			out[i].Results[ci] = r
		}
	}
	return out, nil
}

// The engine's acceptance gate: a sweep through the engine's chunks is
// bitwise identical to the per-cell reference for every method, at every
// worker count and chunk size.
func TestSweepBatchMatchesPerCellBitwise(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 23)
	for i := range xs {
		xs[i] = 50_000 + 37_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }

	for _, m := range []Method{MethodExactChain, MethodClosedForm, MethodExactStable} {
		ref, err := perCellSweep(p, cfgs, m, xs, apply)
		if err != nil {
			t.Fatalf("%v per-cell sweep: %v", m, err)
		}
		for _, w := range []int{1, 3, runtime.NumCPU()} {
			for _, bc := range []int{chunkCells, 1, 5, 1024} {
				got, err := sweepChunked(p, cfgs, m, xs, apply, w, bc)
				if err != nil {
					t.Fatalf("%v workers=%d batch=%d sweep: %v", m, w, bc, err)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%v workers=%d batch=%d sweep differs from per-cell path", m, w, bc)
				}
			}
		}
	}
}

// The batched path must report the same first-cell error string as the
// per-cell path, and that string must carry exactly one "core:" prefix
// per wrapping layer — the sweep attribution no longer stutters a second
// "core:" around the configuration.
func TestSweepErrorShapeBatchAndPerCell(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := []float64{64, 2, 3}
	apply := func(p *params.Parameters, x float64) { p.NodeSetSize = int(x) }

	var perCell, batch string
	_, err := perCellSweep(p, cfgs, MethodExactChain, xs, apply)
	if err == nil {
		t.Fatal("per-cell sweep unexpectedly succeeded")
	}
	perCell = err.Error()
	_, err = sweepChunked(p, cfgs, MethodExactChain, xs, apply, 1, 2)
	if err == nil {
		t.Fatal("batched sweep unexpectedly succeeded")
	}
	batch = err.Error()
	if batch != perCell {
		t.Errorf("batched error %q != per-cell error %q", batch, perCell)
	}

	// Message shape: the failing cell is x=2, config 0. The sweep prefix
	// names the position and configuration once; the cause keeps its own
	// single package prefix.
	bad := p
	bad.NodeSetSize = 2
	_, leaf := referenceAnalyze(bad, cfgs[0], MethodExactChain)
	if leaf == nil {
		t.Fatal("analysis of invalid geometry unexpectedly succeeded")
	}
	want := fmt.Sprintf("core: sweep at x=2: %v: %v", cfgs[0], leaf)
	if perCell != want {
		t.Errorf("error = %q, want %q", perCell, want)
	}
	// The sweep wrap contributes exactly ONE "core:" on top of whatever
	// the leaf already carries — no more stuttered double prefix.
	if got, want := strings.Count(perCell, "core:"), 1+strings.Count(leaf.Error(), "core:"); got != want {
		t.Errorf("error %q contains %d core: prefixes, want %d", perCell, got, want)
	}

	// And when the leaf is itself a core error (geometry), the full
	// message still carries one prefix per layer, not per wrap.
	applyGeom := func(p *params.Parameters, x float64) {
		p.NodeSetSize = int(x)
		if p.RedundancySetSize > int(x) {
			p.RedundancySetSize = int(x)
		}
	}
	_, gerr := Sweep(context.Background(), p, cfgs, MethodExactChain, []float64{64, 3}, applyGeom, 0)
	if gerr == nil {
		t.Fatal("geometry sweep unexpectedly succeeded")
	}
	wantGeom := fmt.Sprintf("core: sweep at x=3: %v: core: node set size 3 too small for fault tolerance %d",
		cfgs[0], cfgs[0].NodeFaultTolerance)
	if gerr.Error() != wantGeom {
		t.Errorf("geometry error = %q, want %q", gerr, wantGeom)
	}
}

// mixedConfigs lists no-internal-RAID ft 1–7 and internal RAID 5/6 in
// ascending chain size — the reverse of the batched sweep's claim order
// within an x block — with a size tie (RAID 6 ft 2 and NIR ft 1, four
// states each) that must keep configuration order.
func mixedConfigs() []Config {
	cfgs := []Config{
		{Internal: InternalRAID5, NodeFaultTolerance: 1},
		{Internal: InternalRAID6, NodeFaultTolerance: 2},
	}
	for k := 1; k <= 7; k++ {
		cfgs = append(cfgs, Config{Internal: InternalNone, NodeFaultTolerance: k})
	}
	return cfgs
}

// deepBase is a base at which every mixedConfigs chain, ft 7 included,
// solves exactly in float64: large redundancy sets, short node and
// drive lifetimes and a high hard error rate (at the baseline's rates
// the deepest chains exhaust float64).
func deepBase() params.Parameters {
	p := params.Baseline()
	p.RedundancySetSize = 48
	p.NodeMTTFHours = 150_000
	p.DriveMTTFHours = 50_000
	p.HardErrorRate = 1e-13
	return p
}

// Claiming the heaviest chunks first reorders the work, never the
// results: a mixed sweep from ft 1 to ft 7 is bitwise identical to
// per-cell analysis at every worker count and chunk size.
func TestSweepBatchMixedConfigsMatchesPerCellBitwise(t *testing.T) {
	p := deepBase()
	cfgs := mixedConfigs()
	xs := make([]float64, 7)
	for i := range xs {
		xs[i] = 20_000 + 30_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }

	ref, err := perCellSweep(p, cfgs, MethodExactChain, xs, apply)
	if err != nil {
		t.Fatalf("per-cell sweep: %v", err)
	}
	for _, w := range []int{1, 2, 7} {
		for _, bc := range []int{1, 3, 256} {
			got, err := sweepChunked(p, cfgs, MethodExactChain, xs, apply, w, bc)
			if err != nil {
				t.Fatalf("workers=%d batch=%d sweep: %v", w, bc, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d batch=%d sweep differs from per-cell path", w, bc)
			}
		}
	}
}

// Within each x block, chunks are claimed heaviest chain first, with
// equal sizes in configuration order; blocks stay in x order. Ranges at
// different rows — the optimizer's topology groups — keep row order,
// and fewer ranges than workers split finer.
func TestChunkSpecsClaimOrder(t *testing.T) {
	// mixedConfigs: 0 RAID5/ft1 (3 states), 1 RAID6/ft2 (4), 2 NIR/ft1
	// (4), 3..8 NIR/ft2..ft7 (8..256).
	cfgs := mixedConfigs()
	order := []int{8, 7, 6, 5, 4, 3, 1, 2, 0}
	var want []CellRange
	for _, blk := range [][2]int{{0, 3}, {3, 5}} {
		for _, ci := range order {
			want = append(want, CellRange{Cfg: cfgs[ci], Col: ci, Lo: blk[0], Hi: blk[1]})
		}
	}
	if got := splitRanges(columns(cfgs, 5), 1, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("splitRanges = %v, want %v", got, want)
	}

	light, heavy := cfgs[0], cfgs[8]
	groups := []CellRange{{Cfg: light, Hi: 5}, {Cfg: heavy, Lo: 5, Hi: 7}}
	want = []CellRange{{Cfg: light, Hi: 3}, {Cfg: light, Lo: 3, Hi: 5}, {Cfg: heavy, Lo: 5, Hi: 7}}
	if got := splitRanges(groups, 1, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("splitRanges(groups) = %v, want %v", got, want)
	}
	// Four workers over two ranges: each range splits in two.
	want = []CellRange{{Cfg: light, Hi: 3}, {Cfg: light, Lo: 3, Hi: 5}, {Cfg: heavy, Lo: 5, Hi: 6}, {Cfg: heavy, Lo: 6, Hi: 7}}
	if got := splitRanges(groups, 4, 256); !reflect.DeepEqual(got, want) {
		t.Errorf("splitRanges(groups, 4 workers) = %v, want %v", got, want)
	}
}

// The lowest failing grid cell wins regardless of claim order. Here it
// is RAID 6 at x = 2 (two drives cannot form RAID 6), a cheap chunk
// claimed after every NIR chunk of its x block; RAID 5 fails later, at
// x = 1, in the last-claimed chunk.
func TestSweepErrorMixedConfigsClaimOrder(t *testing.T) {
	p := deepBase()
	cfgs := mixedConfigs()
	xs := []float64{12, 6, 2, 1, 4}
	apply := func(p *params.Parameters, x float64) { p.DrivesPerNode = int(x) }

	_, err := perCellSweep(p, cfgs, MethodExactChain, xs, apply)
	if err == nil {
		t.Fatal("per-cell sweep unexpectedly succeeded")
	}
	perCell := err.Error()
	want := fmt.Sprintf("core: sweep at x=2: %v: core: 2 drives per node cannot form %s", cfgs[1], InternalRAID6)
	if perCell != want {
		t.Fatalf("per-cell error = %q, want %q", perCell, want)
	}
	for _, w := range []int{1, 2, 7} {
		for _, bc := range []int{1, 3, 256} {
			_, err := sweepChunked(p, cfgs, MethodExactChain, xs, apply, w, bc)
			if err == nil || err.Error() != perCell {
				t.Errorf("workers=%d batch=%d error = %v, want %q", w, bc, err, perCell)
			}
		}
	}
}

// Batched cells are accounted once per chunk: after a metered batched
// sweep, markov.absorption.solves and the chain-size histogram have
// counted every cell, and no cell opened a per-call "markov.solve" span
// — the chunks' "markov.batch" spans fold one observation each. With
// one worker the last chunk to finish is the last one claimed, and the
// residual gauge must hold exactly what the per-cell solver reports for
// that chunk's last cell: on the dense route (mixed list, cheapest
// config claimed last) and on the sparse route (ft 7 alone).
func TestSweepBatchAbsorptionMetrics(t *testing.T) {
	t.Parallel()
	p := deepBase()
	xs := make([]float64, 11)
	for i := range xs {
		xs[i] = 20_000 + 18_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	const chunk = 3
	for _, cfgs := range [][]Config{mixedConfigs(), {{Internal: InternalNone, NodeFaultTolerance: 7}}} {
		reg := obs.NewRegistry()
		ctx, end := meteredCtx(reg)
		_, err := sweepGrid(ctx, p, cfgs, MethodExactChain, xs, apply, 1, chunk)
		end()
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		cells := int64(len(xs) * len(cfgs))
		if got := reg.Counter("markov.absorption.solves").Value(); got != cells {
			t.Errorf("markov.absorption.solves = %d, want %d (one per cell)", got, cells)
		}
		if got := reg.Counter("markov.batch.cells").Value(); got != cells {
			t.Errorf("markov.batch.cells = %d, want %d", got, cells)
		}
		if got := reg.Histogram("markov.absorption.states", nil).Count(); got != cells {
			t.Errorf("markov.absorption.states observed %d times, want %d", got, cells)
		}
		if got := reg.Snapshot().Histograms["trace.markov.solve.seconds"].Count; got != 0 {
			t.Errorf("trace.markov.solve.seconds observed %d batched cells, want 0", got)
		}
		if got, want := reg.Histogram("trace.markov.batch.seconds", nil).Count(), reg.Counter("markov.batch.chunks").Value(); got != want {
			t.Errorf("trace.markov.batch.seconds observed %d chunks, markov.batch.chunks = %d", got, want)
		}
		res := reg.Gauge("markov.absorption.last_residual").Value()
		if math.IsNaN(res) || math.IsInf(res, 0) || res < 0 || res > 1e-3 {
			t.Errorf("markov.absorption.last_residual = %v, want finite and small", res)
		}

		chunks := splitRanges(columns(cfgs, len(xs)), 1, chunk)
		last := chunks[len(chunks)-1].Cfg
		ref := obs.NewRegistry()
		refCtx, end := meteredCtx(ref)
		q := p
		apply(&q, xs[len(xs)-1])
		ch, err := Chain(q, last)
		if err != nil {
			t.Fatal(err)
		}
		_, err = markov.MTTA(refCtx, ch)
		end()
		if err != nil {
			t.Fatalf("per-call solve: %v", err)
		}
		if want := ref.Gauge("markov.absorption.last_residual").Value(); res != want {
			t.Errorf("%v: batched last_residual = %v, per-cell solver reports %v", last, res, want)
		}
	}
}

// Batched cells account their rate computations and sparse solves per
// chunk, not per cell, and the totals still count every cell:
// rebuild.computes once per prepared cell, markov.sparse.solves and
// the markov.sparse.nnz histogram once per sparse-route cell, and the
// grid mixes both routes.
func TestSweepBatchPerChunkAccounting(t *testing.T) {
	t.Parallel()
	p := deepBase()
	xs := make([]float64, 11)
	for i := range xs {
		xs[i] = 20_000 + 18_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	for _, workers := range []int{1, 3} {
		reg := obs.NewRegistry()
		ctx, end := meteredCtx(reg)
		_, err := sweepGrid(ctx, p, mixedConfigs(), MethodExactChain, xs, apply, workers, 3)
		end()
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		cells := int64(len(xs) * len(mixedConfigs()))
		if got := reg.Counter("rebuild.computes").Value(); got != cells {
			t.Errorf("workers %d: rebuild.computes = %d, want %d (one per cell)", workers, got, cells)
		}
		sparse := reg.Counter("markov.sparse.solves").Value()
		if dense := reg.Counter("markov.absorption.solves").Value() - sparse; dense == 0 || dense == cells {
			t.Fatalf("workers %d: %d of %d cells dense; the grid must mix both routes", workers, dense, cells)
		}
		if got := reg.Histogram("markov.sparse.nnz", nil).Count(); got != sparse {
			t.Errorf("workers %d: markov.sparse.nnz observed %d times, want %d (one per sparse cell)", workers, got, sparse)
		}
	}
}

// A chunk whose first cell fails its prep fills no cell: it must open
// no markov.batch span and record no chunk, and the sweep still reports
// that cell's error.
func TestSweepEmptyChunkRecordsNothing(t *testing.T) {
	t.Parallel()
	p := params.Baseline()
	cfgs := []Config{{Internal: InternalNone, NodeFaultTolerance: 2}}
	xs := []float64{64, 48, 2, 64}
	apply := func(p *params.Parameters, x float64) { p.NodeSetSize = int(x) }
	_, want := perCellSweep(p, cfgs, MethodExactChain, xs, apply)
	if want == nil {
		t.Fatal("per-cell sweep unexpectedly succeeded")
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	tr.SetFold(obs.NewSpanFolder(reg))
	ctx, root := tr.Start(context.Background(), "test")
	// Chunks of two: [64 48] solves, [2 64] fails at its first cell.
	_, err := sweepGrid(ctx, p, cfgs, MethodExactChain, xs, apply, 1, 2)
	if err == nil || err.Error() != want.Error() {
		t.Errorf("sweep error = %v, want %v", err, want)
	}
	root.End()

	var chunks int
	for _, sp := range tr.Spans() {
		if sp.Name != "markov.batch" {
			continue
		}
		chunks++
		if cells, _ := sp.Attrs["cells"].(int); cells < 1 {
			t.Errorf("markov.batch span with cells=%v", sp.Attrs["cells"])
		}
	}
	if chunks != 1 {
		t.Errorf("markov.batch spans = %d, want 1", chunks)
	}
	if got := reg.Counter("markov.batch.chunks").Value(); got != 1 {
		t.Errorf("markov.batch.chunks = %d, want 1 (the empty chunk recorded)", got)
	}
	if got := reg.Histogram("markov.batch.chunk_cells", nil).Count(); got != 1 {
		t.Errorf("markov.batch.chunk_cells observed %d chunks, want 1", got)
	}
}

// streamGrid runs sweep with a frontier: cells writes each chunk's
// results into a grid, and rows appends the points it covers to the
// returned slice and reports a call that does not continue where the
// previous one stopped. fail, if non-nil, is the rows error of a call
// covering points [lo, hi).
func streamGrid(t *testing.T, p params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers, chunk int, fail func(lo, hi int) error) ([]SweepPoint, int, error) {
	grid := make([][]Result, len(xs))
	for i := range grid {
		grid[i] = make([]Result, len(cfgs))
	}
	var (
		streamed []SweepPoint
		calls    int
	)
	err := sweep(context.Background(), p, cfgs, method, xs, apply, workers,
		func(col, lo int, res []Result) {
			for i := range res {
				grid[lo+i][col] = res[i]
			}
		},
		func(lo, hi int) error {
			calls++
			if lo != len(streamed) || hi <= lo || hi > len(xs) {
				t.Errorf("rows(%d, %d) after %d streamed points", lo, hi, len(streamed))
			}
			for i := lo; i < hi; i++ {
				streamed = append(streamed, SweepPoint{X: xs[i], Results: grid[i]})
			}
			if fail != nil {
				return fail(lo, hi)
			}
			return nil
		}, chunk)
	return streamed, calls, err
}

// Streaming: rows covers every point exactly once, in ascending x
// order, and the results cells handed over are identical to the
// buffered sweep — at any worker count and chunk size on the batched
// exact-chain engine, and on the per-cell engine the other methods use.
func TestSweepStreamEmitOrderDeterministic(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 17)
	for i := range xs {
		xs[i] = 60_000 + 45_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }

	refs := make(map[Method][]SweepPoint)
	for _, m := range []Method{MethodExactChain, MethodClosedForm} {
		ref, err := Sweep(context.Background(), p, cfgs, m, xs, apply, 1)
		if err != nil {
			t.Fatalf("buffered %v sweep: %v", m, err)
		}
		refs[m] = ref
	}

	cases := []struct {
		name           string
		method         Method
		workers, cells int
	}{
		{"serial/batch", MethodExactChain, 1, 4},
		{"parallel/batch", MethodExactChain, runtime.NumCPU(), 3},
		{"parallel/defaultBatch", MethodExactChain, 0, chunkCells},
		{"parallel/perCell", MethodClosedForm, runtime.NumCPU(), chunkCells},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streamed, _, err := streamGrid(t, p, cfgs, tc.method, xs, apply, tc.workers, tc.cells, nil)
			if err != nil {
				t.Fatalf("stream sweep: %v", err)
			}
			if !reflect.DeepEqual(streamed, refs[tc.method]) {
				t.Error("streamed points differ from buffered sweep (order or content)")
			}
		})
	}
}

// A rows failure cancels the sweep and surfaces as the sweep's error:
// rows is not called again.
func TestSweepStreamEmitErrorCancels(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 12)
	for i := range xs {
		xs[i] = 60_000 + 45_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }
	boom := fmt.Errorf("client went away")
	failed := 0
	calls := 0
	_, n, err := streamGrid(t, p, cfgs, MethodExactChain, xs, apply, 0, 1, func(lo, hi int) error {
		calls++
		if hi >= 3 {
			failed = calls
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("stream error = %v, want %v", err, boom)
	}
	if n != failed {
		t.Errorf("rows called %d times after failure at call %d", n, failed)
	}
}

func TestSweepStreamNilEmit(t *testing.T) {
	p := params.Baseline()
	apply := func(*params.Parameters, float64) {}
	cells := func(int, int, []Result) {}
	rows := func(int, int) error { return nil }
	for name, err := range map[string]error{
		"cells": SweepStream(context.Background(), p, SensitivityConfigs(), MethodExactChain, []float64{1}, apply, 0, nil, rows),
		"rows":  SweepStream(context.Background(), p, SensitivityConfigs(), MethodExactChain, []float64{1}, apply, 0, cells, nil),
	} {
		if err == nil || !strings.Contains(err.Error(), "nil emit") {
			t.Errorf("nil %s error = %v", name, err)
		}
	}
}

// slabRanges runs ps under cfg through the engine as one range of rows
// on workers goroutines in chunks of at most size cells, writing the
// results of successful chunks into out.
func slabRanges(ctx context.Context, cfg Config, method Method, ps []params.Parameters, out []Result, workers, size int) (int, int, error) {
	return analyzeRanges(ctx, method, []CellRange{{Cfg: cfg, Hi: len(ps)}}, workers, size,
		func(row, _ int, p *params.Parameters) { *p = ps[row] },
		func(ch CellRange, res []Result) { copy(out[ch.Lo:ch.Hi], res) })
}

// The engine is the optimizer's confirmation kernel: a slab of
// parameter sets under one configuration must come back bit-identical
// to the per-cell reference, for NIR and internal-RAID configs and every
// method alike, even when every parameter (not just one swept knob)
// varies per cell.
func TestAnalyzeChainBatchMatchesPerCellBitwise(t *testing.T) {
	cfgs := []Config{
		{Internal: InternalNone, NodeFaultTolerance: 2},
		{Internal: InternalRAID5, NodeFaultTolerance: 1},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.String(), func(t *testing.T) {
			var ps []params.Parameters
			for _, n := range []int{32, 64} {
				for _, r := range []int{4, 8} {
					for _, util := range []float64{0.5, 0.8, 0.95} {
						for _, cmd := range []float64{128 * params.KiB, 1 * params.MiB} {
							p := params.Baseline()
							p.NodeSetSize = n
							p.RedundancySetSize = r
							p.CapacityUtilization = util
							p.RebuildCommandBytes = cmd
							ps = append(ps, p)
						}
					}
				}
			}
			for _, m := range []Method{MethodExactChain, MethodClosedForm, MethodExactStable} {
				ref := make([]Result, len(ps))
				for i, p := range ps {
					r, err := referenceAnalyze(p, cfg, m)
					if err != nil {
						t.Fatalf("%v per-cell analyze[%d]: %v", m, i, err)
					}
					ref[i] = r
				}
				got := make([]Result, len(ps))
				row, col, err := slabRanges(context.Background(), cfg, m, ps, got, 2, 7)
				if err != nil {
					t.Fatalf("%v batch analyze: cell %d: %v", m, row, err)
				}
				if row != -1 || col != -1 {
					t.Fatalf("%v successful batch returned cell (%d, %d), want (-1, -1)", m, row, col)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%v batched results differ from per-cell path", m)
				}
			}
		})
	}
}

// A bad cell mid-slab is reported with the per-cell path's exact error
// and its row; the chunks before it have delivered their results.
func TestAnalyzeChainBatchErrorMatchesPerCell(t *testing.T) {
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	ps := make([]params.Parameters, 5)
	for i := range ps {
		ps[i] = params.Baseline()
	}
	ps[3].NodeSetSize = 2 // too small for ft 2
	for _, m := range []Method{MethodExactChain, MethodClosedForm, MethodExactStable} {
		_, want := referenceAnalyze(ps[3], cfg, m)
		if want == nil {
			t.Fatal("per-cell analysis of invalid geometry unexpectedly succeeded")
		}
		out := make([]Result, len(ps))
		row, _, err := slabRanges(context.Background(), cfg, m, ps, out, 1, 2)
		if row != 3 {
			t.Errorf("%v failing row = %d, want 3", m, row)
		}
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%v batch error = %v, want %v", m, err, want)
		}
		ref, _ := referenceAnalyze(ps[0], cfg, m)
		if out[0] != ref {
			t.Errorf("%v cell 0 result not delivered before the failing chunk", m)
		}
	}
}

// Empty input and cancelled contexts take the documented early exits.
func TestAnalyzeChainBatchEdges(t *testing.T) {
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 1}
	if row, col, err := slabRanges(context.Background(), cfg, MethodExactChain, nil, nil, 0, chunkCells); row != -1 || col != -1 || err != nil {
		t.Errorf("empty batch = (%d, %d, %v), want (-1, -1, nil)", row, col, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps := []params.Parameters{params.Baseline()}
	out := make([]Result, 1)
	if row, col, err := slabRanges(ctx, cfg, MethodExactChain, ps, out, 0, chunkCells); row != -1 || col != -1 || err != context.Canceled {
		t.Errorf("cancelled batch = (%d, %d, %v), want (-1, -1, context.Canceled)", row, col, err)
	}
}

// A sweep over no configurations is an error for every method, buffered
// or streamed — not a division by zero in the chunk split, nor a grid
// whose points are never emitted.
func TestSweepWithoutConfigs(t *testing.T) {
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }
	xs := []float64{1e5, 2e5}
	for _, m := range []Method{MethodExactChain, MethodClosedForm, MethodExactStable} {
		if pts, err := Sweep(context.Background(), params.Baseline(), nil, m, xs, apply, 0); err == nil {
			t.Errorf("%v sweep without configurations = %d points, want an error", m, len(pts))
		}
		emitted := 0
		err := SweepStream(context.Background(), params.Baseline(), nil, m, xs, apply, 0,
			func(int, int, []Result) {}, func(lo, hi int) error { emitted += hi - lo; return nil })
		if err == nil {
			t.Errorf("%v stream without configurations succeeded after %d of %d emits, want an error", m, emitted, len(xs))
		}
	}
}

// Series satellite: empty input yields an empty series; an out-of-range
// configuration index panics rather than fabricating zeros.
func TestSeriesEmptyPoints(t *testing.T) {
	if got := Series(nil, 0); len(got) != 0 {
		t.Errorf("Series(nil) = %v, want empty", got)
	}
	if got := Series([]SweepPoint{}, 3); len(got) != 0 {
		t.Errorf("Series(empty) = %v, want empty", got)
	}
}

func TestSeriesOutOfRangePanics(t *testing.T) {
	pts := []SweepPoint{{X: 1, Results: []Result{{EventsPerPBYear: 2}}}}
	if got := Series(pts, 0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Series = %v, want [2]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Series with out-of-range config index did not panic")
		}
	}()
	Series(pts, 1)
}

// streamGridBytes bounds what one streamed 512-point × 5-configuration
// closed-form sweep allocates: far below the 2560 Results (224 bytes
// each, 573 KB) a grid of them would take, so no per-point grid comes
// back onto the streaming path.
const streamGridBytes = 64 << 10

// TestSweepStreamAllocBytes measures the bytes a streamed sweep
// allocates, averaged over eight sweeps after a warm-up one.
func TestSweepStreamAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	cfgs := BaselineConfigs()[:5]
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = 2e4 * math.Pow(10, float64(i)/float64(len(xs)-1))
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	var sum float64
	stream := func() {
		err := SweepStream(context.Background(), params.Baseline(), cfgs, MethodClosedForm, xs, apply, 1,
			func(_, _ int, res []Result) {
				for i := range res {
					sum += res[i].EventsPerPBYear
				}
			},
			func(int, int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(cfgs)*len(xs) != 2560 {
		t.Fatalf("grid of %d cells, want 2560", len(cfgs)*len(xs))
	}
	stream() // warm the chunk pool
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	perSweep := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per streamed sweep", perSweep)
	if perSweep > streamGridBytes {
		t.Errorf("a streamed sweep allocates %d bytes, want at most %d", perSweep, streamGridBytes)
	}
}
