package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/markov"
	"repro/internal/model"
)

func TestScenarioValidateWeibullShapes(t *testing.T) {
	sc, _ := acceleratedNIR(1)
	sc.NodeFailureShape = 2
	sc.DriveFailureShape = 0.5
	if err := sc.Validate(); err != nil {
		t.Errorf("valid Weibull shapes rejected: %v", err)
	}
	sc.NodeFailureShape = -1
	if err := sc.Validate(); err == nil {
		t.Error("negative shape accepted")
	}
	sc.NodeFailureShape = 0.1
	if err := sc.Validate(); err == nil {
		t.Error("pathological shape accepted")
	}
}

// The lifetime sampler must preserve the configured mean for every shape.
func TestLifetimeMeanPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const rate = 0.25 // mean 4
	for _, shape := range []float64{0, 1, 0.7, 2, 3.5} {
		var sum float64
		const n = 200_000
		for i := 0; i < n; i++ {
			sum += dist.Lifetime{Mean: 1 / rate, Shape: shape}.Sample(rng)
		}
		mean := sum / n
		if math.Abs(mean-4) > 0.08 {
			t.Errorf("shape %v: mean lifetime %v, want 4", shape, mean)
		}
	}
}

// Shape 1 must reproduce the exponential path exactly in distribution:
// the simulated MTTDL still matches the Markov chain.
func TestWeibullShapeOneMatchesChain(t *testing.T) {
	sc, in := acceleratedNIR(1)
	sc.NodeFailureShape = 1
	sc.DriveFailureShape = 1
	want, err := markov.MTTA(context.Background(), model.NIRChain(in, 1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(32)), 3000, 1_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.MeanHours - want); diff > 5*est.StdErr+0.10*want {
		t.Errorf("shape-1 DES %v ± %v vs chain %v", est.MeanHours, est.StdErr, want)
	}
}

// Wear-out lifetimes (shape 3) shift the system MTTDL by well under an
// order of magnitude (measured ≈ +50% in this regime: a freshly deployed
// cohort has low early hazard, delaying the first overlap). The paper's
// exponential assumption therefore cannot change its order-of-magnitude
// conclusions. Pin the bounded effect.
func TestWeibullWearOutNearExponential(t *testing.T) {
	scExp, _ := acceleratedNIR(1)
	scExp.CHER = 0 // make losses purely overlap-driven, the sensitive path
	scW := scExp
	scW.NodeFailureShape = 3
	scW.DriveFailureShape = 3
	expEst, err := EstimateMTTDL(t.Context(), scExp, rand.New(rand.NewSource(33)), 2500, 2_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	wEst, err := EstimateMTTDL(t.Context(), scW, rand.New(rand.NewSource(34)), 2500, 2_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := wEst.MeanHours / expEst.MeanHours
	if ratio < 0.5 || ratio > 3 {
		t.Errorf("Weibull(3)/exponential MTTDL ratio = %v, want within [0.5, 3]", ratio)
	}
}
