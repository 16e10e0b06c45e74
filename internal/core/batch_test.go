package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/params"
)

// sweepChunked runs a buffered exact-chain sweep on workers goroutines
// in chunks of at most chunk cells.
func sweepChunked(p params.Parameters, cfgs []Config, xs []float64, apply func(*params.Parameters, float64), workers, chunk int) ([]SweepPoint, error) {
	return sweep(context.Background(), p, cfgs, MethodExactChain, xs, apply, workers, nil, chunk)
}

// meteredCtx returns a context whose span folds into reg — the shape a
// request or a CLI run hands the solver stack — and the span's end.
func meteredCtx(reg *obs.Registry) (context.Context, func()) {
	tr := obs.NewTracer()
	tr.SetFold(obs.NewSpanFolder(reg))
	ctx, root := tr.Start(context.Background(), "test")
	return ctx, root.End
}

// perCellSweep is the reference the batch engine must reproduce: a
// serial loop of AnalyzeCtx over the grid in sweep order (x, then
// configuration), reporting the first failing cell's error with its
// sweep position.
func perCellSweep(p params.Parameters, cfgs []Config, xs []float64, apply func(*params.Parameters, float64)) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(xs))
	for i, x := range xs {
		out[i] = SweepPoint{X: x, Results: make([]Result, len(cfgs))}
		q := p
		apply(&q, x)
		for ci, cfg := range cfgs {
			r, err := AnalyzeCtx(context.Background(), q, cfg, MethodExactChain)
			if err != nil {
				return nil, sweepCellError(x, cfg, err)
			}
			out[i].Results[ci] = r
		}
	}
	return out, nil
}

// The batch engine's acceptance gate: an exact-chain sweep through the
// batched path is bitwise identical to per-cell analysis, at every
// worker count and chunk size.
func TestSweepBatchMatchesPerCellBitwise(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 23)
	for i := range xs {
		xs[i] = 50_000 + 37_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }

	ref, err := perCellSweep(p, cfgs, xs, apply)
	if err != nil {
		t.Fatalf("per-cell sweep: %v", err)
	}
	for _, w := range []int{1, 3, runtime.NumCPU()} {
		for _, bc := range []int{chunkCells, 1, 5, 1024} {
			got, err := sweepChunked(p, cfgs, xs, apply, w, bc)
			if err != nil {
				t.Fatalf("workers=%d batch=%d sweep: %v", w, bc, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("workers=%d batch=%d sweep differs from per-cell path", w, bc)
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
	_, err := perCellSweep(p, cfgs, xs, apply)
	if err == nil {
		t.Fatal("per-cell sweep unexpectedly succeeded")
	}
	perCell = err.Error()
	_, err = sweepChunked(p, cfgs, xs, apply, 1, 2)
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
	_, leaf := Analyze(bad, cfgs[0], MethodExactChain)
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

	ref, err := perCellSweep(p, cfgs, xs, apply)
	if err != nil {
		t.Fatalf("per-cell sweep: %v", err)
	}
	for _, w := range []int{1, 2, 7} {
		for _, bc := range []int{1, 3, 256} {
			got, err := sweepChunked(p, cfgs, xs, apply, w, bc)
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
// equal sizes in configuration order; blocks stay in x order.
func TestChunkSpecsClaimOrder(t *testing.T) {
	// mixedConfigs: 0 RAID5/ft1 (3 states), 1 RAID6/ft2 (4), 2 NIR/ft1
	// (4), 3..8 NIR/ft2..ft7 (8..256).
	order := []int{8, 7, 6, 5, 4, 3, 1, 2, 0}
	var want []chunkSpec
	for _, blk := range [][2]int{{0, 3}, {3, 5}} {
		for _, ci := range order {
			want = append(want, chunkSpec{ci: ci, lo: blk[0], hi: blk[1]})
		}
	}
	if got := chunkSpecs(mixedConfigs(), 5, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("chunkSpecs = %v, want %v", got, want)
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

	_, err := perCellSweep(p, cfgs, xs, apply)
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
			_, err := sweepChunked(p, cfgs, xs, apply, w, bc)
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
		_, err := sweep(ctx, p, cfgs, MethodExactChain, xs, apply, 1, nil, chunk)
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

		specs := chunkSpecs(cfgs, len(xs), chunk)
		last := cfgs[specs[len(specs)-1].ci]
		ref := obs.NewRegistry()
		refCtx, end := meteredCtx(ref)
		q := p
		apply(&q, xs[len(xs)-1])
		_, err = AnalyzeCtx(refCtx, q, last, MethodExactChain)
		end()
		if err != nil {
			t.Fatalf("per-cell analyze: %v", err)
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
		_, err := sweep(ctx, p, mixedConfigs(), MethodExactChain, xs, apply, workers, nil, 3)
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
	_, want := perCellSweep(p, cfgs, xs, apply)
	if want == nil {
		t.Fatal("per-cell sweep unexpectedly succeeded")
	}

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	tr.SetFold(obs.NewSpanFolder(reg))
	ctx, root := tr.Start(context.Background(), "test")
	// Chunks of two: [64 48] solves, [2 64] fails at its first cell.
	_, err := sweep(ctx, p, cfgs, MethodExactChain, xs, apply, 1, nil, 2)
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

// Streaming: emit sees every point exactly once, in ascending x order,
// with results identical to the buffered sweep — at any worker count and
// chunk size on the batched exact-chain engine, and on the per-cell
// engine the other methods use.
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
			var streamed []SweepPoint
			got, err := sweep(context.Background(), p, cfgs, tc.method, xs, apply, tc.workers,
				func(pt SweepPoint) error {
					streamed = append(streamed, pt)
					return nil
				}, tc.cells)
			if err != nil {
				t.Fatalf("stream sweep: %v", err)
			}
			ref := refs[tc.method]
			if !reflect.DeepEqual(got, ref) {
				t.Error("returned grid differs from buffered sweep")
			}
			if !reflect.DeepEqual(streamed, ref) {
				t.Error("streamed points differ from buffered sweep (order or content)")
			}
		})
	}
}

// An emit failure cancels the sweep and surfaces as the sweep's error.
func TestSweepStreamEmitErrorCancels(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := make([]float64, 12)
	for i := range xs {
		xs[i] = 60_000 + 45_000*float64(i)
	}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }
	boom := fmt.Errorf("client went away")
	n := 0
	pts, err := SweepStream(context.Background(), p, cfgs, MethodExactChain, xs, apply, 0,
		func(SweepPoint) error {
			n++
			if n == 3 {
				return boom
			}
			return nil
		})
	if err != boom {
		t.Fatalf("stream error = %v, want %v", err, boom)
	}
	if pts != nil {
		t.Error("failed stream returned a non-nil grid")
	}
	if n != 3 {
		t.Errorf("emit called %d times after failure at 3", n)
	}
}

func TestSweepStreamNilEmit(t *testing.T) {
	p := params.Baseline()
	_, err := SweepStream(context.Background(), p, SensitivityConfigs(), MethodExactChain,
		[]float64{1}, func(*params.Parameters, float64) {}, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "nil emit") {
		t.Fatalf("nil emit error = %v", err)
	}
}

// AnalyzeChainBatchCtx is the optimizer's confirmation kernel: a slab of
// parameter sets under one configuration must come back bit-identical to
// the per-cell exact-chain path, for NIR and internal-RAID configs alike,
// even when every parameter (not just one swept knob) varies per cell.
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
			ref := make([]Result, len(ps))
			for i, p := range ps {
				r, err := AnalyzeCtx(context.Background(), p, cfg, MethodExactChain)
				if err != nil {
					t.Fatalf("per-cell analyze[%d]: %v", i, err)
				}
				ref[i] = r
			}
			got := make([]Result, len(ps))
			idx, err := AnalyzeChainBatchCtx(context.Background(), cfg, ps, got)
			if err != nil {
				t.Fatalf("batch analyze: cell %d: %v", idx, err)
			}
			if idx != -1 {
				t.Fatalf("successful batch returned index %d, want -1", idx)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Error("batched results differ from per-cell path")
			}
		})
	}
}

// A bad cell mid-slab is reported with the per-cell path's exact error
// and its index; earlier cells' results are already written.
func TestAnalyzeChainBatchErrorMatchesPerCell(t *testing.T) {
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	ps := make([]params.Parameters, 5)
	for i := range ps {
		ps[i] = params.Baseline()
	}
	ps[3].NodeSetSize = 2 // too small for ft 2
	_, want := AnalyzeCtx(context.Background(), ps[3], cfg, MethodExactChain)
	if want == nil {
		t.Fatal("per-cell analysis of invalid geometry unexpectedly succeeded")
	}
	out := make([]Result, len(ps))
	idx, err := AnalyzeChainBatchCtx(context.Background(), cfg, ps, out)
	if idx != 3 {
		t.Errorf("failing index = %d, want 3", idx)
	}
	if err == nil || err.Error() != want.Error() {
		t.Errorf("batch error = %v, want %v", err, want)
	}
	ref, _ := AnalyzeCtx(context.Background(), ps[0], cfg, MethodExactChain)
	if out[0] != ref {
		t.Error("cell 0 result not written before the failing cell")
	}
}

// Empty input and cancelled contexts take the documented early exits.
func TestAnalyzeChainBatchEdges(t *testing.T) {
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 1}
	if idx, err := AnalyzeChainBatchCtx(context.Background(), cfg, nil, nil); idx != -1 || err != nil {
		t.Errorf("empty batch = (%d, %v), want (-1, nil)", idx, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps := []params.Parameters{params.Baseline()}
	out := make([]Result, 1)
	if idx, err := AnalyzeChainBatchCtx(ctx, cfg, ps, out); idx != -1 || err != context.Canceled {
		t.Errorf("cancelled batch = (%d, %v), want (-1, context.Canceled)", idx, err)
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
