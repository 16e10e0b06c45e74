package markov

import (
	"context"
	"math"
	"testing"

	"repro/internal/linalg"
)

func TestTransientTwoStateExponential(t *testing.T) {
	lambda := 0.7
	c := twoState(lambda)
	for _, tm := range []float64{0, 0.1, 1, 3, 10} {
		p, err := AbsorbedProbabilityByTime(context.Background(), c, tm, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-lambda*tm)
		if math.Abs(p-want) > 1e-8 {
			t.Errorf("F(%v) = %v, want %v", tm, p, want)
		}
	}
}

func TestTransientErlang2(t *testing.T) {
	// 0 →λ→ 1 →λ→ A: absorption time is Erlang(2, λ),
	// F(t) = 1 - e^{-λt}(1 + λt).
	lambda := 2.0
	c := NewChain()
	c.AddRate("0", "1", lambda)
	c.AddRate("1", "A", lambda)
	c.SetAbsorbing("A")
	for _, tm := range []float64{0.1, 0.5, 1, 2} {
		p, err := AbsorbedProbabilityByTime(context.Background(), c, tm, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-lambda*tm)*(1+lambda*tm)
		if math.Abs(p-want) > 1e-8 {
			t.Errorf("F(%v) = %v, want %v", tm, p, want)
		}
	}
}

func TestTransientDistributionIsDistribution(t *testing.T) {
	c := repairable(1, 3, 0.5)
	for _, tm := range []float64{0, 0.5, 2, 20} {
		pi, err := TransientDistribution(context.Background(), c, tm, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, p := range pi {
			if p < -1e-12 {
				t.Errorf("t=%v: negative probability %v", tm, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-8 {
			t.Errorf("t=%v: Σπ = %v, want 1", tm, sum)
		}
	}
}

func TestTransientZeroTime(t *testing.T) {
	c := repairable(1, 1, 1)
	pi, err := TransientDistribution(context.Background(), c, 0, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pi[c.Initial()] != 1 {
		t.Errorf("π(0) = %v, want unit mass at initial", pi)
	}
}

func TestTransientNegativeTime(t *testing.T) {
	if _, err := TransientDistribution(context.Background(), repairable(1, 1, 1), -1, TransientOptions{}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestAbsorbedProbabilityMonotone(t *testing.T) {
	c := repairable(0.5, 2, 0.3)
	prev := -1.0
	for _, tm := range []float64{0, 1, 2, 5, 10, 50} {
		p, err := AbsorbedProbabilityByTime(context.Background(), c, tm, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if p < prev-1e-9 {
			t.Errorf("F not monotone at t=%v: %v < %v", tm, p, prev)
		}
		prev = p
	}
}

// For long horizons the unreliability F(t) of a chain with a single slow
// absorbing route approaches 1 - exp(-t/MTTA) (exponential approximation
// valid when repair is fast); at minimum F(MTTA·5) should be large.
func TestAbsorbedProbabilityLongHorizon(t *testing.T) {
	c := repairable(1, 50, 0.5)
	mtta, err := MTTA(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := AbsorbedProbabilityByTime(context.Background(), c, 5*mtta, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.9 {
		t.Errorf("F(5·MTTA) = %v, want > 0.9", p)
	}
}

func TestTransientMatchesMatrixExponentialSmallCase(t *testing.T) {
	// Cross-check uniformization against a brute-force truncated Taylor
	// series of e^{Qt} for a small, well-scaled chain.
	c := repairable(1.2, 0.8, 0.4)
	q := generator(c)
	tm := 1.7
	// e^{Qt} by scaling-and-squaring-free Taylor (fine for ‖Qt‖ ~ 4).
	n := q.Rows()
	exp := linalg.Identity(n)
	term := linalg.Identity(n)
	qt := q.Clone().Scale(tm)
	for k := 1; k <= 60; k++ {
		term = term.Mul(qt).Scale(1 / float64(k))
		exp = exp.AddMatrix(term)
	}
	pi0 := linalg.Unit(n, c.Initial())
	want := exp.VecMul(pi0)
	got, err := TransientDistribution(context.Background(), c, tm, TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !linalg.ApproxEqualVec(got, want, 1e-8) {
		t.Errorf("uniformization %v vs Taylor %v", got, want)
	}
}

func TestTransientMaxTermsExceeded(t *testing.T) {
	c := twoState(1e6) // Λt huge with t=10 → needs ~1e7 terms
	_, err := TransientDistribution(context.Background(), c, 10, TransientOptions{MaxTerms: 100})
	if err == nil {
		t.Error("expected convergence failure with tiny MaxTerms")
	}
}
