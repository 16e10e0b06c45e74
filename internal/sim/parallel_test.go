package sim

import (
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/markov"
	"repro/internal/obs"
)

// parallelTestScenario is an accelerated-failure system small enough to
// lose data within a few thousand events.
func parallelTestScenario() Scenario {
	return Scenario{
		N: 8, R: 4, D: 3, T: 1,
		LambdaN: 1e-3, LambdaD: 2e-3, MuN: 2, MuD: 5,
		CHER: 0.01, Repair: RepairExponential,
	}
}

// TestEstimateMTTDLParallelDeterministic is the tentpole contract: the
// parallel estimator returns byte-identical results for any worker count
// at a fixed seed.
func TestEstimateMTTDLParallelDeterministic(t *testing.T) {
	sc := parallelTestScenario()
	const trials, seed = 400, 42
	want, err := EstimateMTTDLParallel(t.Context(), sc, seed, trials, 1_000_000, 1, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, runtime.NumCPU(), 0} {
		got, err := EstimateMTTDLParallel(t.Context(), sc, seed, trials, 1_000_000, workers, Observer{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: %+v != workers=1 result %+v", workers, got, want)
		}
	}
	// A different seed must give a different sample.
	other, err := EstimateMTTDLParallel(t.Context(), sc, seed+1, trials, 1_000_000, 2, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Error("different base seeds produced identical estimates")
	}
}

// TestEstimateMTTDLParallelStatisticallyConsistent checks the parallel
// estimator against the serial one: different samples (per-trial derived
// streams vs one shared stream), same distribution.
func TestEstimateMTTDLParallelStatisticallyConsistent(t *testing.T) {
	sc := parallelTestScenario()
	const trials = 2000
	serial, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(7)), trials, 1_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := EstimateMTTDLParallel(t.Context(), sc, 7, trials, 1_000_000, 4, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(par.MeanHours - serial.MeanHours); diff > 5*(par.StdErr+serial.StdErr) {
		t.Errorf("parallel %v ± %v vs serial %v ± %v: gap too large",
			par.MeanHours, par.StdErr, serial.MeanHours, serial.StdErr)
	}
	if par.MeanEvts <= 0 || par.StdErr <= 0 {
		t.Errorf("degenerate parallel estimate %+v", par)
	}
}

// TestEstimateMTTDLParallelStress hammers the parallel estimator with
// metrics, a retaining tracer and progress all enabled — the -race
// target. It re-checks determinism of the estimate under full
// instrumentation, and that every sim.chunk span holds exactly its
// missions' data_loss events, in mission order, the same at any worker
// count.
func TestEstimateMTTDLParallelStress(t *testing.T) {
	sc := parallelTestScenario()
	const trials = 256
	run := func(workers int) (Estimate, *Metrics, map[int][]obs.SpanEvent, int64) {
		reg := obs.NewRegistry()
		m := NewMetrics(reg)
		tr := obs.NewTracer()
		ctx, root := tr.Start(t.Context(), "stress")
		progress := obs.StartProgress(io.Discard, "missions", trials, time.Millisecond, nil)
		defer progress.Stop()
		ob := Observer{
			Metrics:   m,
			OnMission: func(int, LossResult) { progress.Add(1) },
		}
		est, err := EstimateMTTDLParallel(ctx, sc, 99, trials, 1_000_000, workers, ob)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		root.End()
		byChunk := make(map[int][]obs.SpanEvent)
		for _, sp := range tr.Spans() {
			if sp.Name != "sim.chunk" {
				continue
			}
			lo, hi := sp.Attrs["lo"].(int), sp.Attrs["hi"].(int)
			if len(sp.Events) != hi-lo {
				t.Errorf("workers=%d: chunk [%d,%d) holds %d events", workers, lo, hi, len(sp.Events))
			}
			for k, ev := range sp.Events {
				if ev.Name != "data_loss" || ev.Attrs["mission"] != lo+k {
					t.Errorf("workers=%d: chunk [%d,%d) event %d = %s mission %v, want data_loss mission %d",
						workers, lo, hi, k, ev.Name, ev.Attrs["mission"], lo+k)
				}
			}
			byChunk[lo] = sp.Events
		}
		return est, m, byChunk, progress.Done()
	}
	est1, _, events1, _ := run(1)
	est8, m, events8, done := run(8)
	if est1 != est8 {
		t.Errorf("instrumented estimates differ: workers=1 %+v vs workers=8 %+v", est1, est8)
	}
	if !reflect.DeepEqual(events1, events8) {
		t.Error("per-chunk data_loss events differ between workers=1 and workers=8")
	}
	var total int
	for _, evs := range events8 {
		total += len(evs)
	}
	if total != trials {
		t.Errorf("chunk spans hold %d data_loss events, want %d", total, trials)
	}
	if got := m.Missions.Value(); got != trials {
		t.Errorf("missions counter %d, want %d", got, trials)
	}
	if done != trials {
		t.Errorf("progress saw %d missions, want %d", done, trials)
	}
	if lh := m.LossHours.Count(); lh != trials {
		t.Errorf("loss-hours histogram has %d samples, want %d", lh, trials)
	}
}

// TestChunkRunnerRejectsNegativeWorkers pins the worker-count contract
// of every estimator on the chunk runner: 0 means all CPUs, and a
// negative count is an error, not an all-CPUs run.
func TestChunkRunnerRejectsNegativeWorkers(t *testing.T) {
	ch := biasedParallelTestChain()
	errs := map[string]error{}
	_, errs["EstimateMTTDLParallel"] = EstimateMTTDLParallel(t.Context(), parallelTestScenario(), 1, 100, 1_000_000, -4, Observer{})
	_, errs["EstimateMTTABiasedParallel"] = EstimateMTTABiasedParallel(t.Context(), ch, 1, 2048, 0.5, RepairThreshold(ch), -4)
	_, errs["EstimateFleet"] = EstimateFleet(t.Context(), parallelTestScenario(), 64, 100, 1, -4, 0, nil)
	for name, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s with workers=-4: err = %v, want a negative-workers error", name, err)
		}
	}
}

// TestEstimateMTTDLParallelErrors exercises the failure paths.
func TestEstimateMTTDLParallelErrors(t *testing.T) {
	sc := parallelTestScenario()
	if _, err := EstimateMTTDLParallel(t.Context(), sc, 1, 1, 1_000_000, 2, Observer{}); err == nil {
		t.Error("1 trial accepted")
	}
	bad := sc
	bad.N = 0
	if _, err := EstimateMTTDLParallel(t.Context(), bad, 1, 100, 1_000_000, 2, Observer{}); err == nil {
		t.Error("invalid scenario accepted")
	}
	// A reliable scenario with a tiny event budget must fail and name a
	// trial, and the failure must be stable across worker counts.
	reliable := sc
	reliable.LambdaN, reliable.LambdaD = 1e-9, 1e-9
	_, err := EstimateMTTDLParallel(t.Context(), reliable, 1, 64, 100, 3, Observer{})
	if err == nil || !strings.Contains(err.Error(), "trial") {
		t.Errorf("want per-trial error, got %v", err)
	}
}

// biasedParallelTestChain is a small repairable chain with a rare
// absorbing path, the biased estimator's home turf.
func biasedParallelTestChain() *markov.Chain {
	ch := markov.NewChain()
	ch.AddRate("up", "degraded", 1e-4)
	ch.AddRate("degraded", "up", 10)
	ch.AddRate("degraded", "critical", 2e-4)
	ch.AddRate("critical", "degraded", 5)
	ch.AddRate("critical", "lost", 1e-3)
	ch.SetAbsorbing("lost")
	return ch
}

// TestEstimateMTTABiasedParallelDeterministic pins worker-count
// independence for the biased estimator.
func TestEstimateMTTABiasedParallelDeterministic(t *testing.T) {
	ch := biasedParallelTestChain()
	thr := RepairThreshold(ch)
	const cycles, seed = 30_000, 5
	want, err := EstimateMTTABiasedParallel(t.Context(), ch, seed, cycles, 0.5, thr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, runtime.NumCPU(), 0} {
		got, err := EstimateMTTABiasedParallel(t.Context(), ch, seed, cycles, 0.5, thr, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: %+v != workers=1 result %+v", workers, got, want)
		}
	}
}

// TestEstimateMTTABiasedParallelAccuracy compares the parallel biased
// estimate with the exact dense solution.
func TestEstimateMTTABiasedParallelAccuracy(t *testing.T) {
	ch := biasedParallelTestChain()
	want, err := markov.MTTA(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTABiasedParallel(t.Context(), ch, 11, 60_000, 0.5, RepairThreshold(ch), 4)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.MTTA - want); diff > 5*est.StdErr+0.10*want {
		t.Errorf("biased parallel %v ± %v vs exact %v", est.MTTA, est.StdErr, want)
	}
}

// TestWelfordMatchesDirect checks the accumulator against direct
// two-pass moments on friendly data, and the merge against streaming.
func TestWelfordMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	var stream welford
	var mean float64
	for _, x := range xs {
		stream.observe(x)
		mean += x
	}
	mean /= float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	direct := m2 / float64(len(xs)-1)
	if math.Abs(stream.mean-mean) > 1e-9*math.Abs(mean) {
		t.Errorf("welford mean %v vs direct %v", stream.mean, mean)
	}
	if math.Abs(stream.variance()-direct) > 1e-9*direct {
		t.Errorf("welford variance %v vs direct %v", stream.variance(), direct)
	}
	// Chunked merge must agree with streaming to near machine precision.
	var a, b welford
	for i, x := range xs {
		if i < 137 {
			a.observe(x)
		} else {
			b.observe(x)
		}
	}
	a.merge(b)
	if math.Abs(a.mean-stream.mean) > 1e-12*math.Abs(stream.mean) ||
		math.Abs(a.variance()-stream.variance()) > 1e-9*stream.variance() {
		t.Errorf("merged (%v, %v) vs streamed (%v, %v)", a.mean, a.variance(), stream.mean, stream.variance())
	}
}

// TestWelfordHugeOffset is the satellite regression: at MTTDL-scale
// magnitudes with tiny relative spread, sumSq - sum·mean cancels to
// garbage (often negative) while Welford keeps full relative accuracy.
func TestWelfordHugeOffset(t *testing.T) {
	const offset = 1e10
	xs := []float64{offset + 1, offset + 2, offset + 3, offset + 4}
	var w welford
	var sum, sumSq float64
	for _, x := range xs {
		w.observe(x)
		sum += x
		sumSq += x * x
	}
	wantVar := 5.0 / 3.0 // sample variance of {1,2,3,4}
	if rel := math.Abs(w.variance()-wantVar) / wantVar; rel > 1e-6 {
		t.Errorf("welford variance %v, want %v (rel err %v)", w.variance(), wantVar, rel)
	}
	naive := (sumSq - sum*(sum/4)) / 3
	if rel := math.Abs(naive-wantVar) / wantVar; rel < 1e-6 {
		t.Logf("note: naive variance %v unexpectedly accurate on this platform", naive)
	}
}
