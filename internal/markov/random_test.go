package markov

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomAbsorbingChain builds a random chain guaranteed to absorb: a
// layered structure where every state has some forward (toward-absorbing)
// rate, plus random back edges.
func randomAbsorbingChain(rng *rand.Rand) *Chain {
	layers := 2 + rng.Intn(3)
	return sizedRandomAbsorbingChain(rng, layers, 1+rng.Intn(3))
}

// Property: on arbitrary absorbing chains, Monte Carlo simulation agrees
// with the linear-algebra absorption analysis.
func TestRandomChainsSimulationMatchesAbsorption(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 12; trial++ {
		c := randomAbsorbingChain(rng)
		if err := c.Validate(); err != nil {
			// Some random shapes leave unreachable absorbing paths only
			// via pruned states; skip those.
			continue
		}
		want, err := MTTA(context.Background(), c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		est, err := Simulate(c, rng, 8000, 1_000_000)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(est.MeanTime-want) > 5*est.StdErr+0.02*want {
			t.Errorf("trial %d: simulated %v ± %v vs analytic %v", trial, est.MeanTime, est.StdErr, want)
		}
	}
}

// Property: transient unreliability F(t) converges to the absorption
// probability (1) as t → ∞, and the area under the survival curve
// approximates MTTA.
func TestRandomChainsTransientConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 6; trial++ {
		c := randomAbsorbingChain(rng)
		if err := c.Validate(); err != nil {
			continue
		}
		mtta, err := MTTA(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		// F at a long horizon must be close to 1.
		far, err := AbsorbedProbabilityByTime(context.Background(), c, 50*mtta, TransientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if far < 0.99 {
			t.Errorf("trial %d: F(50·MTTA) = %v", trial, far)
		}
		// Trapezoidal ∫(1-F) over [0, 40·MTTA] ≈ MTTA.
		const steps = 400
		h := 40 * mtta / steps
		integral := 0.0
		prev := 1.0 // survival at t=0
		for i := 1; i <= steps; i++ {
			f, err := AbsorbedProbabilityByTime(context.Background(), c, float64(i)*h, TransientOptions{Epsilon: 1e-8})
			if err != nil {
				t.Fatal(err)
			}
			s := 1 - f
			integral += h * (prev + s) / 2
			prev = s
		}
		if math.Abs(integral-mtta)/mtta > 0.02 {
			t.Errorf("trial %d: ∫survival = %v vs MTTA %v", trial, integral, mtta)
		}
	}
}

// Property: rate sensitivities on random chains predict the effect of a
// small uniform rescaling: Σ elasticities = -1 exactly (time rescaling).
// The last trial is a 60-state chain on the sparse route, so y = R⁻¹·1
// from the sparse factors is checked too.
func TestRandomChainsElasticitySumRule(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial <= 12; trial++ {
		c := randomAbsorbingChain(rng)
		if trial == 12 {
			c = sizedRandomAbsorbingChain(rng, 20, 3)
			if st, err := AbsorptionSparseStats(c); err != nil || !st.Sparse {
				t.Fatalf("trial %d: want a sparse-route chain, got %+v, %v", trial, st, err)
			}
		}
		if err := c.Validate(); err != nil {
			continue
		}
		sens, err := RateSensitivities(c)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, s := range sens {
			sum += s.Elasticity
		}
		if math.Abs(sum+1) > 1e-8 {
			t.Errorf("trial %d: Σ elasticities = %v, want -1 (time-rescaling rule)", trial, sum)
		}
	}
}
