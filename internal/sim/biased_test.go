package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// rareRepairable builds 0 →a→ 1, 1 →b→ 0, 1 →c→ A with MTTA = (a+b+c)/(ac)
// — astronomically large when a, c ≪ b.
func rareRepairable(a, b, c float64) *markov.Chain {
	ch := markov.NewChain()
	ch.AddRate("0", "1", a)
	ch.AddRate("1", "0", b)
	ch.AddRate("1", "A", c)
	ch.SetAbsorbing("A")
	return ch
}

func TestRepairThresholdSeparatesScales(t *testing.T) {
	ch := rareRepairable(1e-4, 1, 1e-5)
	th := RepairThreshold(ch)
	if th <= 1e-4 || th >= 1 {
		t.Errorf("threshold = %v, want between 1e-4 and 1", th)
	}
}

func TestRepairThresholdNoGap(t *testing.T) {
	// All rates within one order of magnitude: no biasing.
	ch := rareRepairable(1, 2, 3)
	if th := RepairThreshold(ch); th != 0 {
		t.Errorf("threshold = %v, want 0 (no gap)", th)
	}
}

func TestBiasedMatchesAnalyticRareChain(t *testing.T) {
	a, b, c := 1e-4, 1.0, 1e-5
	ch := rareRepairable(a, b, c)
	want := (a + b + c) / (a * c) // ≈ 1e9 hours: hopeless for naive simulation
	est, err := EstimateMTTABiased(context.Background(), ch, rand.New(rand.NewSource(21)), 20_000, 0.5, RepairThreshold(ch))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MTTA-want) > 5*est.StdErr {
		t.Errorf("biased MTTA %v ± %v vs analytic %v", est.MTTA, est.StdErr, want)
	}
	if est.RelHalfWidth95() > 0.10 {
		t.Errorf("CI too wide: %v", est.RelHalfWidth95())
	}
}

func TestBiasedUnbiasedModeMatchesOnFastChain(t *testing.T) {
	// threshold 0 disables biasing; on a fast-absorbing chain the plain
	// regenerative estimator must still be correct.
	a, b, c := 1.0, 2.0, 0.5
	ch := rareRepairable(a, b, c)
	want := (a + b + c) / (a * c)
	est, err := EstimateMTTABiased(context.Background(), ch, rand.New(rand.NewSource(22)), 50_000, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MTTA-want) > 5*est.StdErr {
		t.Errorf("unbiased regenerative MTTA %v ± %v vs analytic %v", est.MTTA, est.StdErr, want)
	}
}

// The headline use: estimate the baseline FT2 no-internal-RAID MTTDL
// (≈2×10⁷ hours) on the exact chain and match the linear-algebra solution.
func TestBiasedMatchesBaselineNIRChain(t *testing.T) {
	p := params.Baseline()
	rates := rebuild.Compute(p, 2)
	in := closedform.NIRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
		LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
		MuN: rates.NodeRebuild, MuD: rates.DriveRebuild,
		CHER: p.CHER(),
	}
	ch := model.NIRChain(in, 2)
	want, err := markov.MTTA(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTABiased(context.Background(), ch, rand.New(rand.NewSource(23)), 40_000, 0.5, RepairThreshold(ch))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MTTA-want) > 5*est.StdErr {
		t.Errorf("biased MTTA %v ± %v vs exact %v", est.MTTA, est.StdErr, want)
	}
	if est.RelHalfWidth95() > 0.25 {
		t.Errorf("CI too wide for baseline chain: %v", est.RelHalfWidth95())
	}
	if est.CycleLossProbability <= 0 || est.CycleLossProbability >= 1 {
		t.Errorf("cycle loss probability = %v", est.CycleLossProbability)
	}
}

func TestBiasedValidation(t *testing.T) {
	ch := rareRepairable(1e-4, 1, 1e-5)
	rng := rand.New(rand.NewSource(1))
	if _, err := EstimateMTTABiased(context.Background(), ch, rng, 1, 0.5, 0.01); err == nil {
		t.Error("cycles=1 accepted")
	}
	for _, delta := range []float64{0, 1, -0.1, 1.5} {
		if _, err := EstimateMTTABiased(context.Background(), ch, rng, 100, delta, 0.01); err == nil {
			t.Errorf("delta=%v accepted", delta)
		}
	}
	bad := markov.NewChain()
	bad.AddRate("x", "y", 1)
	bad.AddRate("y", "x", 1)
	if _, err := EstimateMTTABiased(context.Background(), bad, rng, 100, 0.5, 0); err == nil {
		t.Error("chain without absorbing state accepted")
	}
}

func TestBiasedNoAbsorptionsError(t *testing.T) {
	// Unbiased sampling of an ultra-rare chain: absorbing cycles are
	// essentially never observed — the estimator must say so rather than
	// return garbage.
	ch := rareRepairable(1e-4, 1, 1e-9)
	_, err := EstimateMTTABiased(context.Background(), ch, rand.New(rand.NewSource(24)), 200, 0.5, 0)
	if err == nil {
		t.Error("expected a no-absorbing-cycles error")
	}
}

func TestBiasedInitialAbsorbing(t *testing.T) {
	ch := markov.NewChain()
	ch.SetAbsorbing("A")
	ch.SetInitial("A")
	ch.AddRate("x", "A", 1)
	ch.SetInitial("A")
	est, err := EstimateMTTABiased(context.Background(), ch, rand.New(rand.NewSource(25)), 10, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.MTTA != 0 {
		t.Errorf("MTTA = %v, want 0", est.MTTA)
	}
}

// Variance advantage: for the same cycle budget, biasing must give a far
// tighter interval than plain regenerative sampling on a rare chain.
func TestBiasedVarianceReduction(t *testing.T) {
	a, b, c := 1e-3, 1.0, 1e-3
	ch := rareRepairable(a, b, c)
	cycles := 20_000
	plain, err := EstimateMTTABiased(context.Background(), ch, rand.New(rand.NewSource(26)), cycles, 0.5, 0)
	if err != nil {
		t.Skipf("plain estimator saw no absorptions (expected occasionally): %v", err)
	}
	biased, err := EstimateMTTABiased(context.Background(), ch, rand.New(rand.NewSource(27)), cycles, 0.5, RepairThreshold(ch))
	if err != nil {
		t.Fatal(err)
	}
	if biased.StdErr >= plain.StdErr {
		t.Errorf("biased SE %v not below plain SE %v", biased.StdErr, plain.StdErr)
	}
}
