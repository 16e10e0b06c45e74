package nsr

// One benchmark per paper table/figure (Figure 13 baseline, Figures 14–20
// sensitivity sweeps, appendix theorem), plus micro-benchmarks for the
// substrates. Each figure benchmark regenerates the full table per
// iteration and reports headline scalars via ReportMetric; the textual
// tables themselves come from cmd/nsr-report.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/core"
	"repro/internal/erasure"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/rebuild"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/trace"
)

func BenchmarkFig13Baseline(b *testing.B) {
	p := params.Baseline()
	var ft2ir5 float64
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.Fig13Baseline(context.Background(), p, 0)
		if err != nil {
			b.Fatal(err)
		}
		ft2ir5 = results[4].EventsPerPBYear // FT 2, Internal RAID 5
	}
	b.ReportMetric(ft2ir5, "FT2-IR5-events/PB-yr")
}

func benchSweep(b *testing.B, gen func(context.Context, params.Parameters, int) (*experiments.Table, []core.SweepPoint, error)) {
	b.Helper()
	p := params.Baseline()
	var rows int
	for i := 0; i < b.N; i++ {
		t, _, err := gen(context.Background(), p, 0)
		if err != nil {
			b.Fatal(err)
		}
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkFig14DriveMTTF(b *testing.B) {
	p := params.Baseline()
	var tables int
	for i := 0; i < b.N; i++ {
		ts, err := experiments.Fig14DriveMTTF(context.Background(), p, 0)
		if err != nil {
			b.Fatal(err)
		}
		tables = len(ts)
	}
	b.ReportMetric(float64(tables), "tables")
}

func BenchmarkFig15NodeMTTF(b *testing.B) {
	p := params.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15NodeMTTF(context.Background(), p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16RebuildBlock(b *testing.B) {
	benchSweep(b, experiments.Fig16RebuildBlockSize)
}

func BenchmarkFig17LinkSpeed(b *testing.B) {
	benchSweep(b, experiments.Fig17LinkSpeed)
}

func BenchmarkFig18NodeSetSize(b *testing.B) {
	benchSweep(b, experiments.Fig18NodeSetSize)
}

func BenchmarkFig19RedundancySetSize(b *testing.B) {
	benchSweep(b, experiments.Fig19RedundancySetSize)
}

func BenchmarkFig20DrivesPerNode(b *testing.B) {
	benchSweep(b, experiments.Fig20DrivesPerNode)
}

func BenchmarkAppendixGeneralK(b *testing.B) {
	p := params.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AppendixGeneralK(p, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorValidation runs the accelerated DES-vs-chain
// comparison (the experiment behind cmd/nsr-simulate -mode des).
func BenchmarkSimulatorValidation(b *testing.B) {
	sc := sim.Scenario{
		N: 8, R: 4, D: 3, T: 1,
		LambdaN: 1e-3, LambdaD: 2e-3, MuN: 2, MuD: 5,
		CHER: 0.01, Repair: sim.RepairExponential,
	}
	rng := rand.New(rand.NewSource(1))
	var mean float64
	for i := 0; i < b.N; i++ {
		est, err := sim.EstimateMTTDL(b.Context(), sc, rng, 200, 1_000_000, sim.Observer{})
		if err != nil {
			b.Fatal(err)
		}
		mean = est.MeanHours
	}
	b.ReportMetric(mean, "MTTDL-h")
}

// BenchmarkDESBaseline and BenchmarkDESInstrumented bound the cost of the
// observability layer on the DES hot loop: baseline runs with no metrics
// attached (the nil-guard path), instrumented attaches a live registry.
// The ratio of their ns/op is the telemetry overhead.
func desOverheadScenario() sim.Scenario {
	return sim.Scenario{
		N: 8, R: 4, D: 3, T: 1,
		LambdaN: 1e-3, LambdaD: 2e-3, MuN: 2, MuD: 5,
		CHER: 0.01, Repair: sim.RepairExponential,
	}
}

func BenchmarkDESBaseline(b *testing.B) {
	sc := desOverheadScenario()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EstimateMTTDL(b.Context(), sc, rng, 100, 1_000_000, sim.Observer{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDESInstrumented(b *testing.B) {
	sc := desOverheadScenario()
	rng := rand.New(rand.NewSource(1))
	reg := obs.NewRegistry()
	ob := sim.Observer{Metrics: sim.NewMetrics(reg)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EstimateMTTDL(b.Context(), sc, rng, 100, 1_000_000, ob); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiasedRareEvent measures the balanced-failure-biasing estimator
// on the baseline FT2-NIR chain (MTTDL ≈ 2×10⁷ h).
func BenchmarkBiasedRareEvent(b *testing.B) {
	p := params.Baseline()
	rates := rebuild.Compute(p, 2)
	in := closedform.NIRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
		LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
		MuN: rates.NodeRebuild, MuD: rates.DriveRebuild, CHER: p.CHER(),
	}
	ch := model.NIRChain(in, 2)
	th := sim.RepairThreshold(ch)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EstimateMTTABiased(context.Background(), ch, rng, 2000, 0.5, th); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate micro-benchmarks.

func BenchmarkChainSolveNIR(b *testing.B) {
	p := params.Baseline()
	for _, k := range []int{1, 2, 3, 4, 5} {
		b.Run(map[int]string{1: "k=1", 2: "k=2", 3: "k=3", 4: "k=4", 5: "k=5"}[k], func(b *testing.B) {
			rates := rebuild.Compute(p, min(k, 3))
			in := closedform.NIRInputs{
				N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
				LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
				MuN: rates.NodeRebuild, MuD: rates.DriveRebuild, CHER: p.CHER(),
			}
			ch := model.NIRChain(in, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := markov.MTTA(context.Background(), ch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClosedFormGeneralK(b *testing.B) {
	p := params.Baseline()
	rates := rebuild.Compute(p, 3)
	in := closedform.NIRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
		LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
		MuN: rates.NodeRebuild, MuD: rates.DriveRebuild, CHER: p.CHER(),
	}
	var out float64
	for i := 0; i < b.N; i++ {
		out = closedform.NIRMTTDLGeneral(in, 3)
	}
	b.ReportMetric(out, "MTTDL-h")
}

func BenchmarkLUSolve64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	m := linalg.New(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i != j {
				v := rng.Float64()
				m.Set(i, j, v)
				sum += v
			}
		}
		m.Set(i, i, sum+1)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Solve(m, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasureEncode(b *testing.B) {
	code, err := erasure.New(6, 2) // paper geometry at FT 2
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, code.TotalShards())
	rng := rand.New(rand.NewSource(4))
	const shardSize = 64 << 10
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		if i < code.DataShards() {
			rng.Read(shards[i])
		}
	}
	b.SetBytes(int64(code.DataShards() * shardSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := code.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasureReconstruct(b *testing.B) {
	code, err := erasure.New(6, 2)
	if err != nil {
		b.Fatal(err)
	}
	shards := make([][]byte, code.TotalShards())
	rng := rand.New(rand.NewSource(5))
	const shardSize = 64 << 10
	for i := range shards {
		shards[i] = make([]byte, shardSize)
		if i < code.DataShards() {
			rng.Read(shards[i])
		}
	}
	if err := code.Encode(shards); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(2 * shardSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saved0, saved3 := shards[0], shards[3]
		shards[0], shards[3] = nil, nil
		if err := code.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
		_ = saved0
		_ = saved3
	}
}

func BenchmarkAnalyzeExactChain(b *testing.B) {
	p := params.Baseline()
	cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: 3}
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(p, cfg, core.MethodExactChain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecursiveVsLU contrasts the appendix's determinant recursion
// (O(2^k), cancellation-free) with the dense solve (O(8^k)) at k=5.
func BenchmarkRecursiveExactK5(b *testing.B) {
	p := params.Baseline()
	rates := rebuild.Compute(p, 3)
	in := closedform.NIRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
		LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
		MuN: rates.NodeRebuild, MuD: rates.DriveRebuild, CHER: p.CHER(),
	}
	var out float64
	for i := 0; i < b.N; i++ {
		out = closedform.NIRMTTDLRecursive(in, 5)
	}
	b.ReportMetric(out, "MTTDL-h")
}

// BenchmarkMissionTransient measures the uniformization path behind the
// mission-reliability table.
func BenchmarkMissionTransient(b *testing.B) {
	p := params.Baseline()
	cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: 2}
	for i := 0; i < b.N; i++ {
		if _, err := core.MissionSurvival(context.Background(), p, cfg, 5*params.HoursPerYear, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScrubSweep measures the latent-fault scrub-interval study.
func BenchmarkScrubSweep(b *testing.B) {
	p := params.Baseline()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationScrub(p, 1.0/params.HoursPerYear); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGenerateReplay measures a full trace round: generate a
// 5-year fleet trace and replay it against the brick store.
func BenchmarkTraceGenerateReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(trace.GenerateOptions{
			Nodes: 16, DrivesPerNode: 4,
			NodeMTTFHours: 400_000, DriveMTTFHours: 300_000,
			LatentFaultsPerDriveHour: 1e-5,
			HorizonHours:             5 * params.HoursPerYear,
			Seed:                     int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := storage.NewSystem(storage.Config{
			Nodes: 16, DrivesPerNode: 4,
			RedundancySetSize: 8, FaultTolerance: 2,
			DriveCapacityBytes: 8 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 16; j++ {
			if err := sys.Put(fmt.Sprintf("o%d", j), make([]byte, 8<<10)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := trace.Replay(b.Context(), tr, sys, trace.Policy{
			RebuildAfterEachFailure: true, ScrubEveryHours: 720,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateParallel measures the deterministic parallel DES
// estimator across worker counts (the estimate is bit-identical at every
// count; only wall-clock changes). Scaling is visible only when
// GOMAXPROCS exceeds the worker count.
func BenchmarkEstimateParallel(b *testing.B) {
	sc := desOverheadScenario()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.EstimateMTTDLParallel(b.Context(), sc, 1, 512, 1_000_000, w, sim.Observer{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepParallel measures a Section 7 style sweep grid under the
// core worker pool at several worker counts.
func BenchmarkSweepParallel(b *testing.B) {
	p := params.Baseline()
	cfgs := core.SensitivityConfigs()
	xs := []float64{50_000, 100_000, 200_000, 460_000, 700_000, 1_000_000}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweep(context.Background(), p, cfgs, core.MethodExactChain, xs, apply, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLUSolveNoAlloc pins the allocation-free solve path: one
// factorization plus forward and transpose solves per iteration, into
// caller-owned buffers. allocs/op must be 0.
func BenchmarkLUSolveNoAlloc(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 64
	m := linalg.New(n, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			if i != j {
				v := rng.Float64()
				m.Set(i, j, v)
				sum += v
			}
		}
		m.Set(i, i, sum+1)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	var f linalg.LU
	dst := make([]float64, n)
	work := make([]float64, n)
	// Warm up so the LU owns its full-size buffers before counting.
	if err := linalg.FactorizeInto(&f, m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := linalg.FactorizeInto(&f, m); err != nil {
			b.Fatal(err)
		}
		f.SolveInto(dst, rhs)
		f.SolveTransposeInto(dst, rhs, work)
	}
}

// Sparse CTMC solve path benchmarks (BENCH_sparse.json).

// benchAbsorbingChain builds a deterministic layered absorbing chain with
// n transient states — the banded, low-degree structure reliability
// chains have, scaled past the paper's sizes. Rates stay within two
// orders of magnitude so both solve paths are far from conditioning
// limits and the comparison measures arithmetic, not luck.
func benchAbsorbingChain(n int) *markov.Chain {
	rng := rand.New(rand.NewSource(int64(n)))
	const width = 8
	layers := (n + width - 1) / width
	c := markov.NewChain()
	name := func(l, w int) string { return fmt.Sprintf("s%d_%d", l, w) }
	c.SetInitial(name(0, 0))
	c.SetAbsorbing("A")
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			from := name(l, w)
			// Forward-biased: drift toward absorption keeps MTTA ~ O(layers)
			// and the system far from conditioning limits at every n (a
			// backward-biased walk would make MTTA — and κ — exponential
			// in depth, and the benchmark would measure garbage).
			if l == layers-1 {
				c.AddRate(from, "A", 0.5+rng.Float64())
			} else {
				c.AddRate(from, name(l+1, rng.Intn(width)), 0.5+rng.Float64())
			}
			if w+1 < width {
				c.AddRate(from, name(l, w+1), 0.3*rng.Float64())
			}
			if l > 0 {
				c.AddRate(from, name(l-1, rng.Intn(width)), 0.3*rng.Float64())
			}
		}
	}
	return c.Freeze()
}

// benchAbsorption measures the pooled MTTA solving the same frozen chain
// repeatedly — the sweep-grid steady state, one warm pooled solver per
// call — with the dense→sparse crossover pinned to force one path.
func benchAbsorption(b *testing.B, n, minStates int) {
	b.Helper()
	ch := benchAbsorbingChain(n)
	prev := markov.SetSparseMinStates(minStates)
	defer markov.SetSparseMinStates(prev)
	ctx := context.Background()
	if _, err := markov.MTTA(ctx, ch); err != nil { // warm buffers and the symbolic cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := markov.MTTA(ctx, ch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbsorptionSparse is the CSR symbolic/numeric path: after the
// first solve the topology cache is warm, so each iteration is numeric
// refactor + transpose solve only.
func BenchmarkAbsorptionSparse(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchAbsorption(b, n, 1) })
	}
}

// BenchmarkAbsorptionDense is the same workload forced through dense
// partial-pivot LU — the pre-sparse baseline. n=4096 runs ~a minute per
// iteration; use -benchtime=1x when recording it.
func BenchmarkAbsorptionDense(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchAbsorption(b, n, 1<<30) })
	}
}

// BenchmarkSweepSparseReuse measures a Section 7 style sweep at r=48,
// ft=7 (255 transient states per cell, well past the crossover): every
// grid cell reuses a pooled refiller's chain topology and the cached
// symbolic factorization; only numeric values change.
func BenchmarkSweepSparseReuse(b *testing.B) {
	p := params.Baseline()
	p.RedundancySetSize = 48
	cfgs := []core.Config{{Internal: core.InternalNone, NodeFaultTolerance: 7}}
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(200_000 + i)
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(context.Background(), p, cfgs, core.MethodExactChain, xs, apply, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(xs)*len(cfgs)), "cells")
}

// Batched sweep engine benchmarks (BENCH_batch.json).

// benchSweepGrid runs one r=48/ft=7 DriveMTTF sweep of nx cells per
// iteration — the same 255-transient-state chain as
// BenchmarkSweepSparseReuse — through the batched engine.
func benchSweepGrid(b *testing.B, nx int) {
	b.Helper()
	p := params.Baseline()
	p.RedundancySetSize = 48
	cfgs := []core.Config{{Internal: core.InternalNone, NodeFaultTolerance: 7}}
	xs := make([]float64, nx)
	for i := range xs {
		xs[i] = float64(200_000 + i)
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sweep(context.Background(), p, cfgs, core.MethodExactChain, xs, apply, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nx*len(cfgs)), "cells")
}

// BenchmarkSweepBatch measures the structure-of-arrays batched cell
// solver on the Section 7 figure grid (64 cells) and a 10k-cell grid.
// The batched engine amortizes chain construction: rates are refilled
// through a compiled index program straight into the shared CSR
// skeleton, so no per-cell string/map work remains.
func BenchmarkSweepBatch(b *testing.B) {
	for _, c := range []struct {
		name string
		nx   int
	}{
		{"cells=64/batched", 64},
		{"cells=10240/batched", 10_240},
	} {
		b.Run(c.name, func(b *testing.B) { benchSweepGrid(b, c.nx) })
	}
}

// BenchmarkSweepBatchDeep runs the cold exact-chain sweep grid of
// perfbench's sweep-deep workload in process: 5 configurations (no
// internal RAID at ft 5, 6 and 7; internal RAID 5 and 6 at ft 5) × 512
// geometric drive MTTFs from 20k to 200k hours at r = 48, through
// core.Sweep at 1 and 2 workers. Every cell is a refill, fill, sparse
// refactor and solve on one of five frozen topologies, so the per-cell
// cost of that path shows here without perfbench's HTTP layers.
func BenchmarkSweepBatchDeep(b *testing.B) {
	p := params.Baseline()
	p.RedundancySetSize = 48
	p.NodeMTTFHours = 1.5e5
	p.HardErrorRate = 1e-13
	cfgs := []core.Config{
		{Internal: core.InternalNone, NodeFaultTolerance: 5},
		{Internal: core.InternalNone, NodeFaultTolerance: 6},
		{Internal: core.InternalNone, NodeFaultTolerance: 7},
		{Internal: core.InternalRAID5, NodeFaultTolerance: 5},
		{Internal: core.InternalRAID6, NodeFaultTolerance: 5},
	}
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = 2e4 * math.Pow(10, float64(i)/float64(len(xs)-1))
	}
	apply := func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweep(context.Background(), p, cfgs, core.MethodExactChain, xs, apply, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(xs)*len(cfgs)), "us/cell")
		})
	}
}

// BenchmarkStorageRebuild measures the distributed rebuild data path.
func BenchmarkStorageRebuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := storage.NewSystem(storage.Config{
			Nodes: 16, DrivesPerNode: 4,
			RedundancySetSize: 8, FaultTolerance: 2,
			DriveCapacityBytes: 64 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			if err := sys.Put(fmt.Sprintf("o%d", j), make([]byte, 64<<10)); err != nil {
				b.Fatal(err)
			}
		}
		if err := sys.FailNode(i % 16); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}
