package markov

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomAbsorbingChain builds a random chain guaranteed to absorb: a
// layered structure where every state has some forward (toward-absorbing)
// rate, plus random back edges.
func randomAbsorbingChain(rng *rand.Rand) *Chain {
	c := NewChain()
	layers := 2 + rng.Intn(3)
	width := 1 + rng.Intn(3)
	name := func(l, w int) string { return fmt.Sprintf("s%d_%d", l, w) }
	c.SetInitial(name(0, 0))
	c.SetAbsorbing("A")
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			from := name(l, w)
			// Forward edge: next layer or absorption from the last.
			if l == layers-1 {
				c.AddRate(from, "A", 0.05+rng.Float64())
			} else {
				c.AddRate(from, name(l+1, rng.Intn(width)), 0.05+rng.Float64())
			}
			// Optional lateral and backward edges.
			if w+1 < width && rng.Intn(2) == 0 {
				c.AddRate(from, name(l, w+1), rng.Float64())
			}
			if l > 0 && rng.Intn(2) == 0 {
				c.AddRate(from, name(l-1, rng.Intn(width)), rng.Float64()*3)
			}
		}
	}
	return c
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
func TestRandomChainsElasticitySumRule(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 12; trial++ {
		c := randomAbsorbingChain(rng)
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
