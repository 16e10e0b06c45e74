package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

func acceleratedScenario() Scenario {
	return Scenario{
		N: 8, R: 4, D: 3, T: 2,
		LambdaN: 1e-3, LambdaD: 2e-3, MuN: 2, MuD: 5,
		CHER: 0.01, Repair: RepairExponential,
	}
}

func TestEstimateMTTDLParallelCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateMTTDLParallel(ctx, acceleratedScenario(), 1, 500, 1_000_000, 4, Observer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEstimateMTTDLParallelCtxCancelledMidFlight(t *testing.T) {
	// Cancel after a handful of missions complete; the estimator must
	// stop claiming chunks and report cancellation rather than a result.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var missions int
	ob := Observer{OnMission: func(int, LossResult) {
		missions++ // serialized by the estimator's callback mutex
		if missions == 5 {
			cancel()
		}
	}}
	_, err := EstimateMTTDLParallel(ctx, acceleratedScenario(), 1, 100_000, 1_000_000, 4, ob)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEstimateMTTABiasedParallelCtxPreCancelled(t *testing.T) {
	ch := biasedParallelTestChain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateMTTABiasedParallel(ctx, ch, 1, 10_000, 0.5, RepairThreshold(ch), 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The serial biased estimator honours its context like the others: a
// cancelled run returns the cancellation instead of an estimate.
func TestEstimateMTTABiasedCtxPreCancelled(t *testing.T) {
	ch := biasedParallelTestChain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateMTTABiased(ctx, ch, rand.New(rand.NewSource(1)), 10_000, 0.5, RepairThreshold(ch))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEstimateMTTDLParallelCtxBackgroundMatchesPlain(t *testing.T) {
	// Threading a live, cancellable context through must not change a
	// single bit of the estimate — the determinism contract the serving
	// cache leans on.
	sc := acceleratedScenario()
	plain, err := EstimateMTTDLParallel(context.Background(), sc, 7, 300, 1_000_000, 3, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxed, err := EstimateMTTDLParallel(ctx, sc, 7, 300, 1_000_000, 3, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if plain != ctxed {
		t.Fatalf("ctx estimate %+v differs from plain estimate %+v", ctxed, plain)
	}
}
