package markov

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestRateSensitivitiesMatchFiniteDifferences(t *testing.T) {
	build := func(a, b, cc float64) *Chain { return repairable(a, b, cc) }
	a, b, cc := 1.0, 5.0, 0.25
	c := build(a, b, cc)
	sens, err := RateSensitivities(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 3 {
		t.Fatalf("sensitivities = %d, want 3", len(sens))
	}
	base, err := MTTA(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// Central finite differences on each of the three rates.
	const h = 1e-6
	fd := map[[2]string]float64{}
	perturb := []struct {
		from, to string
		make     func(d float64) *Chain
	}{
		{"0", "1", func(d float64) *Chain { return build(a+d, b, cc) }},
		{"1", "0", func(d float64) *Chain { return build(a, b+d, cc) }},
		{"1", "A", func(d float64) *Chain { return build(a, b, cc+d) }},
	}
	for _, p := range perturb {
		up, err := MTTA(context.Background(), p.make(h))
		if err != nil {
			t.Fatal(err)
		}
		down, err := MTTA(context.Background(), p.make(-h))
		if err != nil {
			t.Fatal(err)
		}
		fd[[2]string{p.from, p.to}] = (up - down) / (2 * h)
	}
	for _, s := range sens {
		want := fd[[2]string{s.From, s.To}]
		if linalg.RelDiff(s.DMTTA, want) > 1e-5 {
			t.Errorf("%s→%s: adjoint %v vs finite difference %v", s.From, s.To, s.DMTTA, want)
		}
		wantE := want * s.Rate / base
		if math.Abs(s.Elasticity-wantE) > 1e-5*math.Abs(wantE)+1e-12 {
			t.Errorf("%s→%s: elasticity %v vs %v", s.From, s.To, s.Elasticity, wantE)
		}
	}
}

func TestRateSensitivitySigns(t *testing.T) {
	c := repairable(1, 5, 0.25)
	sens, err := RateSensitivities(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sens {
		switch {
		case s.From == "1" && s.To == "0": // repair
			if s.DMTTA <= 0 {
				t.Errorf("repair sensitivity %v, want positive", s.DMTTA)
			}
		default: // failure or absorption
			if s.DMTTA >= 0 {
				t.Errorf("%s→%s sensitivity %v, want negative", s.From, s.To, s.DMTTA)
			}
		}
	}
}

func TestRateSensitivitiesSorted(t *testing.T) {
	c := repairable(1, 5, 0.25)
	sens, err := RateSensitivities(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sens); i++ {
		if math.Abs(sens[i].Elasticity) > math.Abs(sens[i-1].Elasticity)+1e-15 {
			t.Error("not sorted by |elasticity|")
		}
	}
}

func TestRateSensitivitiesRandomChains(t *testing.T) {
	// Adjoint vs finite differences on randomized repairable chains.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		a := 0.1 + rng.Float64()
		b := 0.1 + rng.Float64()*10
		cc := 0.01 + rng.Float64()
		c := repairable(a, b, cc)
		sens, err := RateSensitivities(c)
		if err != nil {
			t.Fatal(err)
		}
		// Spot-check the absorption edge.
		var got float64
		for _, s := range sens {
			if s.From == "1" && s.To == "A" {
				got = s.DMTTA
			}
		}
		h := cc * 1e-5
		up, err := MTTA(context.Background(), repairable(a, b, cc+h))
		if err != nil {
			t.Fatal(err)
		}
		down, err := MTTA(context.Background(), repairable(a, b, cc-h))
		if err != nil {
			t.Fatal(err)
		}
		want := (up - down) / (2 * h)
		if linalg.RelDiff(got, want) > 1e-4 {
			t.Fatalf("trial %d: adjoint %v vs FD %v", trial, got, want)
		}
	}
}

func TestRateSensitivitiesErrors(t *testing.T) {
	bad := NewChain()
	bad.AddRate("a", "b", 1)
	bad.AddRate("b", "a", 1)
	if _, err := RateSensitivities(bad); err == nil {
		t.Error("invalid chain accepted")
	}
	absInit := NewChain()
	absInit.SetAbsorbing("A")
	absInit.AddRate("x", "A", 1)
	absInit.SetInitial("A")
	if _, err := RateSensitivities(absInit); err == nil {
		t.Error("absorbing initial state accepted")
	}
}
