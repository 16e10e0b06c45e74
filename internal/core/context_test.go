package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/params"
)

func TestValidateWorkers(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1024} {
		if err := ValidateWorkers(n); err != nil {
			t.Errorf("ValidateWorkers(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{-1, -4, -1 << 30} {
		err := ValidateWorkers(n)
		if err == nil {
			t.Errorf("ValidateWorkers(%d) = nil, want error", n)
		} else if err.Error() == "" {
			t.Errorf("ValidateWorkers(%d) returned an empty error", n)
		}
	}
}

func TestSweepCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(ctx, params.Baseline(), BaselineConfigs(), MethodClosedForm,
		[]float64{1e5, 2e5, 3e5}, func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sweep with cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestSweepCtxCancelledMidFlight(t *testing.T) {
	t.Parallel()
	// Cancel from inside the apply hook after a few cells have started:
	// the sweep must stop early and report cancellation, not a grid.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = 1e5 + float64(i)*1e3
		}
		pts, err := Sweep(ctx, params.Baseline(), BaselineConfigs(), MethodClosedForm, xs,
			func(p *params.Parameters, x float64) {
				if calls.Add(1) == 3 {
					cancel()
				}
				p.DriveMTTFHours = x
			}, workers)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if pts != nil {
			t.Fatalf("workers=%d: got partial sweep points alongside a cancellation error", workers)
		}
		total := int64(len(xs) * len(BaselineConfigs()))
		if n := calls.Load(); n >= total {
			t.Errorf("workers=%d: all %d cells ran despite cancellation", workers, n)
		}
	}
}

func TestAnalyzeAllCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeAll(ctx, params.Baseline(), BaselineConfigs(), MethodClosedForm, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeAll with cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestElasticitiesCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Internal: InternalRAID5, NodeFaultTolerance: 2}
	_, err := Elasticities(ctx, params.Baseline(), cfg, MethodClosedForm, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Elasticities with cancelled context: err = %v, want context.Canceled", err)
	}
}

// Advise polls its context between knobs and between bisection steps,
// so a cancelled call reports the cancellation instead of advice.
func TestAdviseCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	advice, err := Advise(ctx, params.Baseline(), cfg, PaperTarget(), MethodClosedForm)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Advise with cancelled context: err = %v, want context.Canceled", err)
	}
	if advice != nil {
		t.Error("cancelled Advise returned advice")
	}
}

// A traced exact-chain Elasticities call solves the base analysis and
// the two perturbed analyses of each of the seven knobs as one chunk:
// one "markov.batch" span of 15 cells under the caller's span, and no
// per-call solve span.
func TestElasticitiesTracesEverySolve(t *testing.T) {
	tr := obs.NewTracer()
	ctx, root := tr.Start(context.Background(), "caller")
	cfg := Config{Internal: InternalRAID5, NodeFaultTolerance: 2}
	if _, err := Elasticities(ctx, params.Baseline(), cfg, MethodExactChain, 0); err != nil {
		t.Fatal(err)
	}
	root.End()
	spans := tr.Spans()
	var rootID int64
	for _, sp := range spans {
		if sp.Name == "caller" {
			rootID = sp.ID
		}
	}
	var batches int
	for _, sp := range spans {
		switch sp.Name {
		case "markov.solve":
			t.Errorf("per-call markov.solve span %d in a chunked Elasticities call", sp.ID)
		case "markov.batch":
			batches++
			if sp.Parent != rootID {
				t.Errorf("markov.batch span %d has parent %d, want the caller's span %d", sp.ID, sp.Parent, rootID)
			}
			if want := 1 + 2*len(elasticityKnobs()); sp.Attrs["cells"] != want {
				t.Errorf("markov.batch cells = %v, want %d", sp.Attrs["cells"], want)
			}
		}
	}
	if batches != 1 {
		t.Errorf("markov.batch spans = %d, want 1", batches)
	}
}
