package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/params"
)

// TestWorkerCountMapping pins the one parallelism convention: 0 selects
// runtime.NumCPU(), a positive count is taken as given, and a negative
// count is rejected before any work runs.
func TestWorkerCountMapping(t *testing.T) {
	t.Parallel()
	if got := poolSize(0); got != runtime.NumCPU() {
		t.Errorf("poolSize(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := poolSize(5); got != 5 {
		t.Errorf("poolSize(5) = %d, want 5", got)
	}
	called := false
	err := RunIndexed(context.Background(), 4, -3, func(int) error { called = true; return nil })
	if err == nil {
		t.Error("RunIndexed with -3 workers succeeded, want an error")
	}
	if called {
		t.Error("RunIndexed with -3 workers called fn")
	}
	if _, err := Sweep(context.Background(), params.Baseline(), SensitivityConfigs(), MethodClosedForm,
		[]float64{1e5}, func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }, -1); err == nil {
		t.Error("Sweep with -1 workers succeeded, want an error")
	}
}

func TestRunIndexedEmpty(t *testing.T) {
	called := false
	if err := RunIndexed(context.Background(), 0, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatalf("RunIndexed(0) = %v", err)
	}
	if called {
		t.Error("fn called for empty range")
	}
}

// TestSweepDeterministicAcrossWorkers is the core determinism contract:
// a sweep's output must be byte-identical at every worker count.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := []float64{50_000, 100_000, 200_000, 460_000, 1_000_000}
	apply := func(p *params.Parameters, x float64) { p.NodeMTTFHours = x }

	var ref []SweepPoint
	var err error
	ref, err = Sweep(context.Background(), p, cfgs, MethodExactChain, xs, apply, 1)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	for _, w := range []int{2, 7, runtime.NumCPU(), 0} {
		got, err := Sweep(context.Background(), p, cfgs, MethodExactChain, xs, apply, w)
		if err != nil {
			t.Fatalf("workers=%d sweep: %v", w, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d sweep differs from serial", w)
		}
	}
}

// TestSweepFirstErrorDeterministic pins first-error semantics: at any
// worker count the reported error is that of the earliest failing grid
// cell, exactly as the serial loop reports it.
func TestSweepFirstErrorDeterministic(t *testing.T) {
	t.Parallel()
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	// x is installed as the node set size; 2 and 3 are both invalid under
	// the baseline redundancy set, so several trailing cells fail and the
	// earliest failing cell (sweep order, then config order) must win.
	xs := []float64{64, 2, 3}
	apply := func(p *params.Parameters, x float64) { p.NodeSetSize = int(x) }

	var want string
	_, err := Sweep(context.Background(), p, cfgs, MethodExactChain, xs, apply, 1)
	if err == nil {
		t.Fatal("serial sweep unexpectedly succeeded")
	}
	want = err.Error()
	for _, w := range []int{2, 7, runtime.NumCPU()} {
		_, err := Sweep(context.Background(), p, cfgs, MethodExactChain, xs, apply, w)
		if err == nil {
			t.Fatalf("workers=%d sweep unexpectedly succeeded", w)
		}
		if err.Error() != want {
			t.Errorf("workers=%d error = %q, want %q", w, err, want)
		}
	}
}

func TestAnalyzeAllDeterministicAcrossWorkers(t *testing.T) {
	t.Parallel()
	p := params.Baseline()
	cfgs := BaselineConfigs()

	var ref []Result
	var err error
	ref, err = AnalyzeAll(context.Background(), p, cfgs, MethodExactChain, 1)
	if err != nil {
		t.Fatalf("serial AnalyzeAll: %v", err)
	}
	for _, w := range []int{2, 7} {
		got, err := AnalyzeAll(context.Background(), p, cfgs, MethodExactChain, w)
		if err != nil {
			t.Fatalf("workers=%d AnalyzeAll: %v", w, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("workers=%d AnalyzeAll differs from serial", w)
		}
	}
}

// Elasticities' one chunk reproduces the central differences of
// independent per-cell analyses bit for bit.
func TestElasticitiesMatchPerCellAnalyses(t *testing.T) {
	t.Parallel()
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	const step = 0.01
	for _, m := range []Method{MethodExactChain, MethodClosedForm, MethodExactStable} {
		got, err := Elasticities(context.Background(), p, cfg, m, step)
		if err != nil {
			t.Fatalf("%v Elasticities: %v", m, err)
		}
		for i, knob := range elasticityKnobs() {
			up, down := p, p
			knob.scale(&up, 1+step)
			knob.scale(&down, 1-step)
			rUp, err := referenceAnalyze(up, cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			rDown, err := referenceAnalyze(down, cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			want := (math.Log(rUp.EventsPerPBYear) - math.Log(rDown.EventsPerPBYear)) /
				(math.Log(1+step) - math.Log(1-step))
			if got[i] != (Elasticity{Parameter: knob.name, Value: want}) {
				t.Errorf("%v %s: elasticity %v, want %v", m, knob.name, got[i].Value, want)
			}
		}
	}
}
