package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestShockValidation(t *testing.T) {
	sc, _ := acceleratedNIR(2)
	sc.ShockRate = -1
	if err := sc.Validate(); err == nil {
		t.Error("negative shock rate accepted")
	}
	sc.ShockRate = 0.01
	sc.ShockSize = 0
	if err := sc.Validate(); err == nil {
		t.Error("shock size 0 accepted with positive rate")
	}
	sc.ShockSize = 99
	if err := sc.Validate(); err == nil {
		t.Error("shock size > N accepted")
	}
	sc.ShockSize = 3
	if err := sc.Validate(); err != nil {
		t.Errorf("valid shock config rejected: %v", err)
	}
}

// A shock bigger than the fault tolerance is an instant loss: with
// component failures switched (almost) off, MTTDL ≈ 1/shockRate.
func TestShockBeyondToleranceDominates(t *testing.T) {
	sc, _ := acceleratedNIR(2)
	sc.LambdaN = 1e-9
	sc.LambdaD = 1e-9
	sc.CHER = 0
	sc.ShockRate = 0.01
	sc.ShockSize = 3 // > t = 2
	est, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(81)), 3000, 1_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / sc.ShockRate
	if math.Abs(est.MeanHours-want) > 5*est.StdErr+0.05*want {
		t.Errorf("MTTDL = %v ± %v, want ≈ %v (1/shock rate)", est.MeanHours, est.StdErr, want)
	}
}

// A shock exactly at the tolerance doesn't lose data by itself but leaves
// zero margin for the rebuild window: MTTDL must sit well above
// 1/shockRate yet far below the shock-free value.
func TestShockAtToleranceErodes(t *testing.T) {
	base, _ := acceleratedNIR(2)
	base.CHER = 0
	noShock, err := EstimateMTTDL(t.Context(), base, rand.New(rand.NewSource(82)), 1200, 5_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	shocked := base
	shocked.ShockRate = 0.002
	shocked.ShockSize = 2 // == t
	withShock, err := EstimateMTTDL(t.Context(), shocked, rand.New(rand.NewSource(83)), 1200, 5_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if withShock.MeanHours >= noShock.MeanHours {
		t.Errorf("shocks did not erode MTTDL: %v vs %v", withShock.MeanHours, noShock.MeanHours)
	}
	if withShock.MeanHours < 1/shocked.ShockRate {
		t.Errorf("at-tolerance shocks should not be instant loss: MTTDL %v < 1/rate %v",
			withShock.MeanHours, 1/shocked.ShockRate)
	}
}

// Correlation is what matters, not the raw failure count: moving 20% of
// the node-failure budget into pair-shocks must cost reliability even
// though the expected number of node failures per hour is unchanged.
func TestShockCorrelationCostsAtFixedBudget(t *testing.T) {
	indep, _ := acceleratedNIR(2)
	indep.CHER = 0
	nf := float64(indep.N) * indep.LambdaN // total node-failure rate

	correlated := indep
	correlated.ShockSize = 2
	correlated.ShockRate = 0.2 * nf / 2                   // 20% of failures arrive in pairs
	correlated.LambdaN = 0.8 * nf / float64(correlated.N) // the rest stay independent

	a, err := EstimateMTTDL(t.Context(), indep, rand.New(rand.NewSource(84)), 1200, 5_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateMTTDL(t.Context(), correlated, rand.New(rand.NewSource(85)), 1200, 5_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if b.MeanHours >= a.MeanHours {
		t.Errorf("correlated MTTDL %v not below independent %v at equal budget", b.MeanHours, a.MeanHours)
	}
}
