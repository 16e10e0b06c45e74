package dist

import (
	"fmt"
	"math"
)

// Test-only: the lifetime's hazard, survival and quantile functions,
// against which the tests check Sample.

// Hazard returns the instantaneous failure rate at age t.
func (l Lifetime) Hazard(t float64) float64 {
	if t < 0 {
		panic(fmt.Sprintf("dist: negative age %v", t))
	}
	if l.exponential() {
		return 1 / l.Mean
	}
	scale := l.Mean / math.Gamma(1+1/l.Shape)
	if t == 0 {
		if l.Shape > 1 {
			return 0
		}
		return math.Inf(1)
	}
	return l.Shape / scale * math.Pow(t/scale, l.Shape-1)
}

// Survival returns P(lifetime > t).
func (l Lifetime) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if l.exponential() {
		return math.Exp(-t / l.Mean)
	}
	scale := l.Mean / math.Gamma(1+1/l.Shape)
	return math.Exp(-math.Pow(t/scale, l.Shape))
}

// Quantile returns the age by which a fraction p of the population has
// failed (the inverse CDF). It panics for p outside [0, 1).
func (l Lifetime) Quantile(p float64) float64 {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("dist: quantile %v out of [0, 1)", p))
	}
	if p == 0 {
		return 0
	}
	x := -math.Log(1 - p)
	if l.exponential() {
		return l.Mean * x
	}
	scale := l.Mean / math.Gamma(1+1/l.Shape)
	return scale * math.Pow(x, 1/l.Shape)
}
