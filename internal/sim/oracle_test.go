package sim

import (
	"math"
	"math/rand"
)

// Test-only: one mission from a fresh system, the harness the per-mission
// and estimator tests run.

// RunUntilLoss simulates one trajectory from a fresh system to its first
// data-loss event. maxEvents bounds the run; exceeding it returns an error
// (the scenario is too reliable for naive simulation — use the biased
// estimator instead). m, when non-nil, collects the run's metrics.
func RunUntilLoss(sc Scenario, rng *rand.Rand, maxEvents int, m *Metrics) (LossResult, error) {
	if err := sc.Validate(); err != nil {
		return LossResult{}, err
	}
	s := newMissionShard(sc, newCalendarQueue(), m)
	defer s.flushMetrics()
	return s.runMission(rng, maxEvents)
}

// RelHalfWidth95 returns the 95% confidence half-width relative to the
// mean, or +Inf for a zero mean.
func (e Estimate) RelHalfWidth95() float64 {
	if e.MeanHours == 0 {
		return math.Inf(1)
	}
	return 1.96 * e.StdErr / e.MeanHours
}
