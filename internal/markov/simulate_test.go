package markov

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestSamplePathAbsorbs(t *testing.T) {
	c := repairable(1, 2, 0.5)
	rng := rand.New(rand.NewSource(1))
	p, err := SamplePath(c, rng, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsAbsorbing(p.Absorbed) {
		t.Error("path ended in non-absorbing state")
	}
	if p.Time <= 0 || p.Steps < 2 {
		t.Errorf("suspicious path: %+v", p)
	}
}

func TestSamplePathMaxSteps(t *testing.T) {
	// Absorption requires astronomically many steps: strong repair, weak
	// absorption.
	c := repairable(1, 1e9, 1e-9)
	rng := rand.New(rand.NewSource(2))
	if _, err := SamplePath(c, rng, 10); err == nil {
		t.Error("expected max-steps error")
	}
}

func TestSimulateMatchesAnalyticMTTA(t *testing.T) {
	c := repairable(1, 4, 0.5)
	want, err := MTTA(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	est, err := Simulate(c, rng, 20_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate should be within 5 standard errors (overwhelmingly
	// likely) and the CI should be tight.
	if math.Abs(est.MeanTime-want) > 5*est.StdErr {
		t.Errorf("simulated MTTA = %v ± %v, analytic %v", est.MeanTime, est.StdErr, want)
	}
	if est.RelHalfWidth95() > 0.05 {
		t.Errorf("CI too wide: %v", est.RelHalfWidth95())
	}
}

func TestSimulateExponentialMean(t *testing.T) {
	lambda := 3.0
	c := twoState(lambda)
	rng := rand.New(rand.NewSource(7))
	est, err := Simulate(c, rng, 50_000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MeanTime-1/lambda) > 5*est.StdErr {
		t.Errorf("mean = %v ± %v, want %v", est.MeanTime, est.StdErr, 1/lambda)
	}
	if est.MeanSteps != 1 {
		t.Errorf("MeanSteps = %v, want 1", est.MeanSteps)
	}
	if est.AbsorbedCount["A"] != 50_000 {
		t.Errorf("AbsorbedCount = %v", est.AbsorbedCount)
	}
}

func TestSimulateAbsorptionSplitMatchesAnalytic(t *testing.T) {
	c := NewChain()
	c.AddRate("0", "A", 1)
	c.AddRate("0", "B", 3)
	c.SetAbsorbing("A")
	c.SetAbsorbing("B")
	rng := rand.New(rand.NewSource(11))
	trials := 40_000
	est, err := Simulate(c, rng, trials, 10)
	if err != nil {
		t.Fatal(err)
	}
	fracA := float64(est.AbsorbedCount["A"]) / float64(trials)
	// Binomial SE ≈ sqrt(0.25·0.75/n) ≈ 0.0022; allow 5σ.
	if math.Abs(fracA-0.25) > 0.011 {
		t.Errorf("P[A] simulated = %v, want 0.25", fracA)
	}
}

func TestSimulateInvalidArgs(t *testing.T) {
	c := repairable(1, 1, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := Simulate(c, rng, 0, 10); err == nil {
		t.Error("trials=0 accepted")
	}
	bad := NewChain()
	bad.AddRate("a", "b", 1)
	bad.AddRate("b", "a", 1)
	if _, err := Simulate(bad, rng, 10, 10); err == nil {
		t.Error("invalid chain accepted")
	}
}

func TestRelHalfWidthZeroMean(t *testing.T) {
	e := SimulationEstimate{MeanTime: 0}
	if !math.IsInf(e.RelHalfWidth95(), 1) {
		t.Error("RelHalfWidth95 with zero mean should be +Inf")
	}
}
