package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/markov"
)

// The paper's configurations at baseline have MTTDLs of 10^10 hours and
// beyond: a naive simulation would process ~μ/λ ≈ 10^5 repair cycles per
// loss event. This file implements the standard remedy (regenerative
// simulation with balanced failure biasing and likelihood-ratio
// correction):
//
//   - a *cycle* starts in the initial (all-good) state and ends on the
//     first return to it, or on absorption;
//   - by renewal-reward, MTTA = E[L] / P(absorb in a cycle), with L the
//     cycle length;
//   - cycles are sampled from a *biased* embedded chain in which failure
//     transitions get a fixed probability budget δ (split evenly — the
//     "balanced" in balanced failure biasing), and every cycle carries the
//     likelihood ratio W of the true embedded chain against the biased
//     one, so the estimators remain unbiased;
//   - holding times enter through their conditional expectation 1/exit
//     rate (a further variance reduction).

// BiasedEstimate is the result of a biased regenerative run.
type BiasedEstimate struct {
	// MTTA is the estimated mean time to absorption.
	MTTA float64
	// StdErr is the delta-method standard error of MTTA.
	StdErr float64
	// Cycles is the number of regenerative cycles simulated.
	Cycles int
	// CycleLossProbability is the estimated probability that a cycle ends
	// in absorption rather than regeneration.
	CycleLossProbability float64
}

// RelHalfWidth95 returns the 95% confidence half-width relative to the
// estimate, or +Inf for a zero estimate.
func (e BiasedEstimate) RelHalfWidth95() float64 {
	if e.MTTA == 0 {
		return math.Inf(1)
	}
	return 1.96 * e.StdErr / e.MTTA
}

// RepairThreshold picks a rate that separates "repair" transitions (fast)
// from "failure" transitions (slow) by the largest logarithmic gap between
// distinct transition rates. It returns 0 — meaning "do not bias" — when
// the rates have no gap of at least one order of magnitude, which is also
// the regime where naive simulation works fine.
func RepairThreshold(c *markov.Chain) float64 {
	var rates []float64
	for i := 0; i < c.NumStates(); i++ {
		for _, e := range c.Successors(i) {
			rates = append(rates, e.Rate)
		}
	}
	if len(rates) < 2 {
		return 0
	}
	sort.Float64s(rates)
	bestGap, threshold := 10.0, 0.0
	for i := 1; i < len(rates); i++ {
		if rates[i-1] == 0 {
			continue
		}
		if gap := rates[i] / rates[i-1]; gap > bestGap {
			bestGap = gap
			threshold = math.Sqrt(rates[i] * rates[i-1])
		}
	}
	return threshold
}

// EstimateMTTABiased estimates the chain's mean time to absorption with
// balanced failure biasing. delta is the probability budget given to
// failure transitions in biased states (0 < delta < 1; 0.5 is customary).
// repairThreshold classifies transitions: rates at or above it are repairs.
// Pass RepairThreshold(c) for the automatic choice; a zero threshold
// disables biasing (every transition sampled at its true probability).
// ctx is polled before each chunk of cycleChunk cycles, so a cancelled
// estimate returns ctx.Err().
func EstimateMTTABiased(ctx context.Context, c *markov.Chain, rng *rand.Rand, cycles int, delta, repairThreshold float64) (BiasedEstimate, error) {
	return estimateMTTABiased(ctx, c, rng, 0, cycles, delta, repairThreshold, 1)
}

// buildBiasPlans precomputes the per-state sampling plans. The plans are
// read-only after construction and safe to share across worker
// goroutines.
func buildBiasPlans(c *markov.Chain, delta, repairThreshold float64) []biasPlan {
	init := c.Initial()
	plans := make([]biasPlan, c.NumStates())
	for i := 0; i < c.NumStates(); i++ {
		if !c.IsAbsorbing(i) {
			plans[i] = newBiasPlan(c, i, i == init, delta, repairThreshold)
		}
	}
	return plans
}

// runBiasedCycle simulates one regenerative cycle, returning the weighted
// cycle length x and the weighted absorption indicator y.
func runBiasedCycle(c *markov.Chain, plans []biasPlan, init int, rng *rand.Rand) (x, y float64, err error) {
	const maxSteps = 10_000_000
	state := init
	w := 1.0
	l := 0.0
	absorbed := false
	for step := 0; ; step++ {
		if step >= maxSteps {
			return 0, 0, fmt.Errorf("sim: cycle exceeded %d steps; biasing parameters unsuitable", maxSteps)
		}
		l += plans[state].meanHold
		next, ratio := plans[state].sample(rng)
		w *= ratio
		if c.IsAbsorbing(next) {
			absorbed = true
			break
		}
		if next == init {
			break
		}
		state = next
	}
	x = w * l
	if absorbed {
		y = w
	}
	return x, y, nil
}

// biasedSums accumulates the ratio-estimator moments. Sums of independent
// per-cycle terms are exact under any grouping; folding per-chunk sums in
// a fixed chunk order makes the parallel estimator's floating-point
// result independent of the worker count.
type biasedSums struct {
	x, y, xx, yy, xy float64
	n                int
}

// add folds one cycle's (x, y) in.
func (s *biasedSums) add(x, y float64) {
	s.x += x
	s.y += y
	s.xx += x * x
	s.yy += y * y
	s.xy += x * y
	s.n++
}

// merge folds another accumulator in (plain sum composition).
func (s *biasedSums) merge(o biasedSums) {
	s.x += o.x
	s.y += o.y
	s.xx += o.xx
	s.yy += o.yy
	s.xy += o.xy
	s.n += o.n
}

// estimate finalizes the delta-method ratio estimator over the
// accumulated cycles.
func (s biasedSums) estimate() (BiasedEstimate, error) {
	nf := float64(s.n)
	meanX, meanY := s.x/nf, s.y/nf
	if meanY == 0 {
		return BiasedEstimate{}, fmt.Errorf("sim: no absorbing cycles observed in %d cycles; increase cycles or delta", s.n)
	}
	mtta := meanX / meanY
	// Delta-method variance of the ratio estimator.
	varX := (s.xx - nf*meanX*meanX) / (nf - 1)
	varY := (s.yy - nf*meanY*meanY) / (nf - 1)
	covXY := (s.xy - nf*meanX*meanY) / (nf - 1)
	varR := (varX - 2*mtta*covXY + mtta*mtta*varY) / (meanY * meanY)
	se := 0.0
	if varR > 0 {
		se = math.Sqrt(varR / nf)
	}
	return BiasedEstimate{
		MTTA:                 mtta,
		StdErr:               se,
		Cycles:               s.n,
		CycleLossProbability: meanY,
	}, nil
}

// biasPlan holds one state's true and biased embedded distributions.
type biasPlan struct {
	targets  []int
	trueProb []float64
	biasProb []float64
	meanHold float64
}

// newBiasPlan builds the sampling plan for a transient state. The initial
// state and states lacking either class of transition are left unbiased.
func newBiasPlan(c *markov.Chain, state int, isInit bool, delta, threshold float64) biasPlan {
	succ := c.Successors(state)
	exit := c.ExitRate(state)
	plan := biasPlan{
		targets:  make([]int, len(succ)),
		trueProb: make([]float64, len(succ)),
		biasProb: make([]float64, len(succ)),
		meanHold: 1 / exit,
	}
	var failureIdx, repairIdx []int
	for i, e := range succ {
		plan.targets[i] = e.To
		plan.trueProb[i] = e.Rate / exit
		if threshold > 0 && e.Rate >= threshold {
			repairIdx = append(repairIdx, i)
		} else {
			failureIdx = append(failureIdx, i)
		}
	}
	if isInit || threshold <= 0 || len(failureIdx) == 0 || len(repairIdx) == 0 {
		copy(plan.biasProb, plan.trueProb)
		return plan
	}
	// Balanced failure biasing: failures share delta evenly; repairs share
	// 1-delta proportionally to their true rates.
	for _, i := range failureIdx {
		plan.biasProb[i] = delta / float64(len(failureIdx))
	}
	var repairMass float64
	for _, i := range repairIdx {
		repairMass += plan.trueProb[i]
	}
	for _, i := range repairIdx {
		plan.biasProb[i] = (1 - delta) * plan.trueProb[i] / repairMass
	}
	return plan
}

// sample draws a successor from the biased distribution, returning the
// target and the likelihood ratio true/bias for that step.
func (p biasPlan) sample(rng *rand.Rand) (int, float64) {
	u := rng.Float64()
	idx := len(p.targets) - 1
	acc := 0.0
	for i, q := range p.biasProb {
		acc += q
		if u < acc {
			idx = i
			break
		}
	}
	return p.targets[idx], p.trueProb[idx] / p.biasProb[idx]
}
