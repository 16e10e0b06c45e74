package markov

import (
	"context"
	"fmt"
	"math"
	"time"
)

// TransientOptions tunes the uniformization computation.
type TransientOptions struct {
	// Epsilon bounds the truncation error of the Poisson series. The
	// default (0) means 1e-10.
	Epsilon float64
	// MaxTerms caps the series length as a safety valve for very large
	// Λ·t. The default (0) means 10 million terms.
	MaxTerms int
}

// ctxPollInterval is how many uniformization terms run between context
// polls: frequent enough that cancellation lands within microseconds for
// the reliability chains, rare enough that the atomic load vanishes
// against the sparse matrix-vector product each term costs.
const ctxPollInterval = 64

// TransientDistribution returns the state probability vector at time t
// (indexed like the chain's states) starting from the initial state,
// computed by uniformization:
//
//	π(t) = Σ_k e^{-Λt} (Λt)^k / k! · π(0)·Pᵏ,  P = I + Q/Λ
//
// with Λ ≥ max_i |q_ii|. The series is truncated when the remaining Poisson
// mass drops below Epsilon. The series loop polls the context every
// ctxPollInterval terms (stiff chains can need millions), returning
// ctx.Err() when cancelled.
func TransientDistribution(ctx context.Context, c *Chain, t float64, opts TransientOptions) ([]float64, error) {

	if err := c.Validate(); err != nil {
		return nil, err
	}
	if t < 0 {
		return nil, fmt.Errorf("markov: negative time %v", t)
	}
	eps := opts.Epsilon
	if eps <= 0 {
		eps = 1e-10
	}
	maxTerms := opts.MaxTerms
	if maxTerms <= 0 {
		maxTerms = 10_000_000
	}
	n := c.NumStates()
	pi := make([]float64, n)
	pi[c.Initial()] = 1
	if t == 0 {
		return pi, nil
	}

	// Uniformization rate.
	var lambda float64
	for i := 0; i < n; i++ {
		if r := c.ExitRate(i); r > lambda {
			lambda = r
		}
	}
	if lambda == 0 {
		return pi, nil // no transitions at all
	}
	lt := lambda * t

	// P = I + Q/Λ applied as a sparse operator: v' = v + (v·Q)/Λ.
	// Frozen chains stream the CSR edge array directly (no per-term
	// allocation; the double buffer below is the only vector storage).
	// Either path accumulates each out[to] slot once per source row in
	// ascending row order, so the result is bit-identical regardless of
	// representation.
	frozen := c.Frozen()
	applyP := func(v, out []float64) {
		copy(out, v)
		for i := 0; i < n; i++ {
			vi := v[i]
			if vi == 0 {
				continue
			}
			out[i] -= vi * c.ExitRate(i) / lambda
			if frozen {
				for _, e := range c.Successors(i) {
					out[e.To] += vi * e.Rate / lambda
				}
			} else {
				for to, r := range c.rates[i] {
					out[to] += vi * r / lambda
				}
			}
		}
	}

	// Accumulate Σ poisson(k; Λt)·π(0)Pᵏ with running Poisson weights.
	// Start the weight in log space to survive large Λt. Two stopping
	// rules: the mass check (exact for small Λt) and the 12σ Poisson
	// tail bound (the mass check alone can be defeated by accumulated
	// floating-point drift in the log-weight recursion at large Λt —
	// the tail beyond Λt+12√Λt carries < 1e-25 of the mass).
	m := metricsFrom(ctx)
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	logW := -lt // log of e^{-Λt}·(Λt)^0/0!
	sumW := 0.0
	acc := make([]float64, n)
	vk, next := pi, make([]float64, n)
	tailCutoff := int(lt+12*math.Sqrt(lt)) + 50
	terms := 0
	for k := 0; ; k++ {
		terms = k + 1
		w := math.Exp(logW)
		if w > 0 {
			for i, v := range vk {
				acc[i] += w * v
			}
			sumW += w
		}
		if k > int(lt) && (1-sumW < eps || k >= tailCutoff) {
			break
		}
		if k >= maxTerms {
			return nil, fmt.Errorf("markov: uniformization did not converge in %d terms (Λt=%g)", maxTerms, lt)
		}
		if k%ctxPollInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		applyP(vk, next)
		vk, next = next, vk
		logW += math.Log(lt) - math.Log(float64(k+1))
	}
	// Renormalize the truncated series to reduce bias.
	if sumW > 0 {
		for i := range acc {
			acc[i] /= sumW
		}
	}
	if m != nil {
		m.transientDone(start, terms, 1-sumW)
	}
	return acc, nil
}

// AbsorbedProbabilityByTime returns the probability that the chain has been
// absorbed (in any absorbing state) by time t — for data-loss models, the
// unreliability F(t). The context reaches the uniformization loop, so a
// cancelled call returns ctx.Err().
func AbsorbedProbabilityByTime(ctx context.Context, c *Chain, t float64, opts TransientOptions) (float64, error) {
	pi, err := TransientDistribution(ctx, c, t, opts)
	if err != nil {
		return 0, err
	}
	var p float64
	for _, a := range c.AbsorbingStates() {
		p += pi[a]
	}
	return p, nil
}
