package markov

import (
	"context"
	"fmt"
	"sort"
)

// RateSensitivity is the exact partial derivative of the mean time to
// absorption with respect to one transition's rate.
type RateSensitivity struct {
	// From and To name the transition.
	From, To string
	// Rate is the transition's current rate.
	Rate float64
	// DMTTA is ∂MTTA/∂rate (usually negative for failure-ish transitions
	// and positive for repair-ish ones).
	DMTTA float64
	// Elasticity is the dimensionless d log(MTTA)/d log(rate).
	Elasticity float64
}

// RateSensitivities computes ∂MTTA/∂rate for every transition by the
// adjoint method — two linear solves total, regardless of the number of
// transitions:
//
//	y = R⁻¹·1        (y_i = MTTA starting from transient state i)
//	τ = R⁻ᵀ·e_init   (τ_i = expected time spent in state i)
//
// Perturbing the rate of i→j changes R_ii by +dr and (for transient j)
// R_ij by −dr, so ∂MTTA/∂r = −τ_i·(y_i − y_j), with y_j = 0 when j is
// absorbing. Both solves run on the one factorization behind MTTA (a
// pooled BatchSolver's one-cell solve, on whichever route it took), so
// the MTTA the elasticities normalize by is bit-identical to MTTA's, and
// an MTTA that MTTA refuses (not positive and finite) is the same error
// here. Results are sorted by |Elasticity| descending.
func RateSensitivities(c *Chain) ([]RateSensitivity, error) {
	b := AcquireBatchSolver()
	defer ReleaseBatchSolver(b)
	mtta, err := b.solveChain(context.Background(), c)
	if err != nil {
		return nil, err
	}
	if b.initRow < 0 {
		return nil, fmt.Errorf("markov: initial state is absorbing")
	}
	tau, y := b.tau, b.solveOnes()

	var out []RateSensitivity
	for i, s := range b.trans {
		for _, e := range c.Successors(s) {
			yj := 0.0
			if j := b.pos[e.To]; j >= 0 {
				yj = y[j]
			}
			d := -tau[i] * (y[i] - yj)
			out = append(out, RateSensitivity{
				From:       c.StateName(s),
				To:         c.StateName(e.To),
				Rate:       e.Rate,
				DMTTA:      d,
				Elasticity: d * e.Rate / mtta,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		ea, eb := out[a].Elasticity, out[b].Elasticity
		if ea < 0 {
			ea = -ea
		}
		if eb < 0 {
			eb = -eb
		}
		if ea != eb {
			return ea > eb
		}
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	return out, nil
}
