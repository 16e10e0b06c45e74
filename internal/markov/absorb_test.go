package markov

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// twoState builds 0 →λ→ A.
func twoState(lambda float64) *Chain {
	c := NewChain()
	c.AddRate("0", "A", lambda)
	c.SetAbsorbing("A")
	return c
}

// repairable builds the classic 3-state repairable system:
// 0 →a→ 1, 1 →b→ 0, 1 →c→ A(absorbing), with exact MTTA (a+b+c)/(a·c).
func repairable(a, b, cc float64) *Chain {
	c := NewChain()
	c.AddRate("0", "1", a)
	c.AddRate("1", "0", b)
	c.AddRate("1", "A", cc)
	c.SetAbsorbing("A")
	return c
}

func TestMTTATwoState(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 42, 2.5e-6} {
		got, err := MTTA(context.Background(), twoState(lambda))
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		if want := 1 / lambda; linalg.RelDiff(got, want) > 1e-12 {
			t.Errorf("MTTA(λ=%v) = %v, want %v", lambda, got, want)
		}
	}
}

func TestMTTARepairableExact(t *testing.T) {
	cases := [][3]float64{
		{1, 10, 0.5},
		{2.5e-6, 0.25, 1e-6},   // reliability-model-like scales
		{0.001, 1000, 0.00001}, // strong repair
	}
	for _, cs := range cases {
		a, b, cc := cs[0], cs[1], cs[2]
		got, err := MTTA(context.Background(), repairable(a, b, cc))
		if err != nil {
			t.Fatal(err)
		}
		want := (a + b + cc) / (a * cc)
		// The strong-repair case (b/c ~ 1e8) is ill-conditioned by
		// nature; a few ULPs of the dominant ratio are lost.
		if linalg.RelDiff(got, want) > 1e-7 {
			t.Errorf("MTTA(%v,%v,%v) = %v, want %v", a, b, cc, got, want)
		}
	}
}

func TestAbsorptionTimeInStateSumsToMTTA(t *testing.T) {
	c := repairable(1, 5, 0.25)
	res, err := Absorption(c)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, tau := range res.TimeInState {
		sum += tau
	}
	if linalg.RelDiff(sum, res.MeanTimeToAbsorption) > 1e-12 {
		t.Errorf("Στ = %v, MTTA = %v", sum, res.MeanTimeToAbsorption)
	}
}

func TestAbsorptionProbabilitiesSplit(t *testing.T) {
	// One transient state draining to two absorbing states 1:3.
	c := NewChain()
	c.AddRate("0", "A", 1)
	c.AddRate("0", "B", 3)
	c.SetAbsorbing("A")
	c.SetAbsorbing("B")
	res, err := Absorption(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.AbsorptionProbability["A"]-0.25) > 1e-12 {
		t.Errorf("P[A] = %v, want 0.25", res.AbsorptionProbability["A"])
	}
	if math.Abs(res.AbsorptionProbability["B"]-0.75) > 1e-12 {
		t.Errorf("P[B] = %v, want 0.75", res.AbsorptionProbability["B"])
	}
}

func TestAbsorptionProbabilitiesSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random chain: 4 transient states in a chain with repair, two
		// absorbing states reachable from the last.
		c := NewChain()
		names := []string{"0", "1", "2", "3"}
		for i := 0; i+1 < len(names); i++ {
			c.AddRate(names[i], names[i+1], 0.1+rng.Float64())
			c.AddRate(names[i+1], names[i], 0.1+rng.Float64())
		}
		c.AddRate("3", "A", 0.1+rng.Float64())
		c.AddRate("1", "B", 0.1+rng.Float64())
		c.SetAbsorbing("A")
		c.SetAbsorbing("B")
		res, err := Absorption(c)
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range res.AbsorptionProbability {
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAbsorptionInitialAbsorbing(t *testing.T) {
	c := NewChain()
	c.SetAbsorbing("A")
	c.SetInitial("A")
	c.AddRate("x", "A", 1) // keep the chain structurally valid
	c.SetInitial("A")
	res, err := Absorption(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTimeToAbsorption != 0 {
		t.Errorf("MTTA from absorbing initial = %v, want 0", res.MeanTimeToAbsorption)
	}
	if res.AbsorptionProbability["A"] != 1 {
		t.Errorf("P[A] = %v, want 1", res.AbsorptionProbability["A"])
	}
}

func TestAbsorptionInvalidChain(t *testing.T) {
	c := NewChain()
	c.AddRate("a", "b", 1)
	c.AddRate("b", "a", 1)
	if _, err := Absorption(c); err == nil {
		t.Error("Absorption on chain without absorbing state succeeded")
	}
}

// Faster repair must never decrease MTTA on the repairable model.
func TestMTTAMonotoneInRepairRate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := 0.1 + rng.Float64()
		cc := 0.01 + rng.Float64()
		b1 := rng.Float64() * 10
		b2 := b1 + rng.Float64()*10
		m1, err1 := MTTA(context.Background(), repairable(a, b1, cc))
		m2, err2 := MTTA(context.Background(), repairable(a, b2, cc))
		return err1 == nil && err2 == nil && m2 >= m1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MTTA scales inversely with a uniform rate scaling (time rescaling).
func TestMTTATimeRescalingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, cc := 0.1+rng.Float64(), rng.Float64()*5, 0.05+rng.Float64()
		s := 0.5 + rng.Float64()*10
		m1, err1 := MTTA(context.Background(), repairable(a, b, cc))
		m2, err2 := MTTA(context.Background(), repairable(s*a, s*b, s*cc))
		if err1 != nil || err2 != nil {
			return false
		}
		return linalg.RelDiff(m1, s*m2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
