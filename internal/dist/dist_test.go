package dist

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidate(t *testing.T) {
	good := []Lifetime{{Mean: 1}, {Mean: 5, Shape: 1}, {Mean: 5, Shape: 3}, {Mean: 5, Shape: 0.5}}
	for _, l := range good {
		if err := l.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", l, err)
		}
	}
	bad := []Lifetime{{}, {Mean: -1}, {Mean: math.NaN()}, {Mean: 1, Shape: -1}, {Mean: 1, Shape: math.NaN()}, {Mean: 1, Shape: 0.1}}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("%+v accepted", l)
		}
	}
}

func TestSampleMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []float64{0, 1, 0.7, 2, 4} {
		l := Lifetime{Mean: 3, Shape: shape}
		var sum float64
		const n = 300_000
		for i := 0; i < n; i++ {
			sum += l.Sample(rng)
		}
		if mean := sum / n; math.Abs(mean-3) > 0.05 {
			t.Errorf("shape %v: sample mean %v, want 3", shape, mean)
		}
	}
}

func TestSurvivalExponential(t *testing.T) {
	l := Lifetime{Mean: 2}
	if got, want := l.Survival(2), math.Exp(-1); math.Abs(got-want) > 1e-12 {
		t.Errorf("S(mean) = %v, want %v", got, want)
	}
	if l.Survival(0) != 1 || l.Survival(-5) != 1 {
		t.Error("S(<=0) should be 1")
	}
}

func TestSurvivalMatchesEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := Lifetime{Mean: 2, Shape: 3}
	const n = 200_000
	horizon := 1.5
	alive := 0
	for i := 0; i < n; i++ {
		if l.Sample(rng) > horizon {
			alive++
		}
	}
	got := float64(alive) / n
	want := l.Survival(horizon)
	if math.Abs(got-want) > 0.005 {
		t.Errorf("empirical survival %v vs analytic %v", got, want)
	}
}

func TestHazardShapes(t *testing.T) {
	exp := Lifetime{Mean: 4}
	if got := exp.Hazard(0); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("exponential hazard = %v, want 0.25", got)
	}
	if exp.Hazard(10) != exp.Hazard(0.1) {
		t.Error("exponential hazard should be constant")
	}
	wearOut := Lifetime{Mean: 4, Shape: 3}
	if wearOut.Hazard(0) != 0 {
		t.Error("wear-out hazard at age 0 should be 0")
	}
	if wearOut.Hazard(1) >= wearOut.Hazard(5) {
		t.Error("wear-out hazard should increase with age")
	}
	infant := Lifetime{Mean: 4, Shape: 0.5}
	if !math.IsInf(infant.Hazard(0), 1) {
		t.Error("infant-mortality hazard at age 0 should diverge")
	}
	if infant.Hazard(1) <= infant.Hazard(5) {
		t.Error("infant-mortality hazard should decrease with age")
	}
}

func TestHazardNegativeAgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Lifetime{Mean: 1}.Hazard(-1)
}

func TestQuantileInvertsSurvival(t *testing.T) {
	for _, shape := range []float64{0, 2, 0.8} {
		l := Lifetime{Mean: 3, Shape: shape}
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
			q := l.Quantile(p)
			if got := 1 - l.Survival(q); math.Abs(got-p) > 1e-10 {
				t.Errorf("shape %v: CDF(Quantile(%v)) = %v", shape, p, got)
			}
		}
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, p := range []float64{-0.1, 1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			Lifetime{Mean: 1}.Quantile(p)
		}()
	}
}

// Median sanity: exponential median = mean·ln2; Weibull shape 3 median is
// close to the mean.
func TestQuantileKnownMedians(t *testing.T) {
	exp := Lifetime{Mean: 10}
	if got, want := exp.Quantile(0.5), 10*math.Ln2; math.Abs(got-want) > 1e-9 {
		t.Errorf("exponential median = %v, want %v", got, want)
	}
}
