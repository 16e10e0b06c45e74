package markov

import (
	"context"

	"repro/internal/linalg"
)

// AbsorptionResult reports the absorption analysis of a chain.
type AbsorptionResult struct {
	// MeanTimeToAbsorption is the expected time from the initial state to
	// any absorbing state — the paper's MTTDL when the absorbing states
	// are data-loss states.
	MeanTimeToAbsorption float64
	// TimeInState maps transient state name → expected total time spent
	// there before absorption (the τ_i of the appendix).
	TimeInState map[string]float64
	// AbsorptionProbability maps absorbing state name → probability that
	// the chain is eventually absorbed there. With a single absorbing
	// state this is 1.
	AbsorptionProbability map[string]float64
}

// Absorption solves the chain for its mean time to absorption and related
// quantities. It follows the appendix: with R = -Q_B the absorption matrix
// and π_B(0) the initial distribution over transient states,
//
//	τ_B = π_B(0)·R⁻¹,   MTTA = τ_B·⟨1,…,1⟩ᵀ.
//
// Absorption probabilities are p_a = Σ_i τ_i · rate(i→a).
// τ comes from the one-cell solve behind MTTA (a pooled BatchSolver:
// same validation, routing and factorization), so MeanTimeToAbsorption
// is bit-identical to MTTA on every chain.
// It returns an error if the chain fails Validate, the absorption matrix
// is singular (absorption not almost-sure), or the MTTA is not positive
// and finite, exactly as MTTA does.
func Absorption(c *Chain) (*AbsorptionResult, error) {
	b := AcquireBatchSolver()
	defer ReleaseBatchSolver(b)
	mtta, err := b.solveChain(context.Background(), c)
	if err != nil {
		return nil, err
	}
	if b.initRow < 0 {
		// Initial state is absorbing: zero time to absorption.
		res := &AbsorptionResult{
			TimeInState:           map[string]float64{},
			AbsorptionProbability: map[string]float64{c.StateName(c.initial): 1},
		}
		return res, nil
	}
	res := &AbsorptionResult{
		MeanTimeToAbsorption:  mtta,
		TimeInState:           make(map[string]float64, len(b.trans)),
		AbsorptionProbability: make(map[string]float64),
	}
	for row, s := range b.trans {
		res.TimeInState[c.StateName(s)] = b.tau[row]
		for _, e := range c.Successors(s) {
			if c.absorbing[e.To] {
				res.AbsorptionProbability[c.StateName(e.To)] += b.tau[row] * e.Rate
			}
		}
	}
	return res, nil
}

// absorptionResidual returns ‖Rᵀτ − e_init‖∞, the backward error of the
// absorption solve — computed only when solver instrumentation is on.
func absorptionResidual(r *linalg.Matrix, tau []float64, initRow int) float64 {
	var worst float64
	for j := 0; j < len(tau); j++ {
		var s float64
		for i := 0; i < len(tau); i++ {
			s += r.At(i, j) * tau[i]
		}
		if j == initRow {
			s -= 1
		}
		if s < 0 {
			s = -s
		}
		if s > worst {
			worst = s
		}
	}
	return worst
}
