// Package dist holds the lifetime distributions shared by the simulators
// and the trace generator: exponential and Weibull, both parameterized by
// their mean so models keep speaking in MTTF terms.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Lifetime describes a non-negative random lifetime with a given mean.
type Lifetime struct {
	// Mean is the expected lifetime (e.g. an MTTF in hours).
	Mean float64
	// Shape is the Weibull shape parameter; 0 or 1 selects the
	// exponential distribution. Shape > 1 models wear-out (increasing
	// hazard), shape < 1 infant mortality.
	Shape float64
}

// Validate reports the first problem: a mean that is not positive or a
// shape that is not non-negative (NaN fails both), or a shape below 0.2.
func (l Lifetime) Validate() error {
	switch {
	case !(l.Mean > 0):
		return fmt.Errorf("dist: mean %v must be positive", l.Mean)
	case !(l.Shape >= 0):
		return fmt.Errorf("dist: shape %v must be non-negative", l.Shape)
	case l.Shape > 0 && l.Shape < 0.2:
		return fmt.Errorf("dist: shape %v below 0.2 is numerically pathological", l.Shape)
	}
	return nil
}

// exponential reports whether the distribution degenerates to exponential.
func (l Lifetime) exponential() bool { return l.Shape == 0 || l.Shape == 1 }

// Sample draws one lifetime.
func (l Lifetime) Sample(rng *rand.Rand) float64 {
	if l.exponential() {
		return rng.ExpFloat64() * l.Mean
	}
	scale := l.Mean / math.Gamma(1+1/l.Shape)
	return scale * math.Pow(rng.ExpFloat64(), 1/l.Shape)
}
