package sim

import "repro/internal/obs"

// Metrics bundles the DES's registry handles. A nil *Metrics disables
// instrumentation at (benchmarked) zero cost: the simulator guards every
// observation site with one nil check and accumulates per-event tallies
// locally, flushing them into the atomic registry once per chunk of
// missions.
type Metrics struct {
	// Missions counts completed missions; every one ends in a data-loss
	// event, broken down by cause below.
	Missions *obs.Counter
	// Events counts all simulator events processed.
	Events *obs.Counter
	// NodeRebuildHours, DriveRebuildHours and RestripeHours sample the
	// repair durations drawn for each triggered repair.
	NodeRebuildHours  *obs.Histogram
	DriveRebuildHours *obs.Histogram
	RestripeHours     *obs.Histogram
	// LossHours samples the simulated time-to-data-loss per mission.
	LossHours *obs.Histogram

	byKind  [numEventKinds]*obs.Counter
	byCause [lossCauseCount]*obs.Counter
}

// NewMetrics registers the simulator's metrics under the "sim." prefix.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		Missions:          reg.Counter("sim.missions"),
		Events:            reg.Counter("sim.events"),
		NodeRebuildHours:  reg.Histogram("sim.node_rebuild_hours", obs.ExpBuckets(0.01, 2, 24)),
		DriveRebuildHours: reg.Histogram("sim.drive_rebuild_hours", obs.ExpBuckets(0.01, 2, 24)),
		RestripeHours:     reg.Histogram("sim.restripe_hours", obs.ExpBuckets(0.01, 2, 24)),
		LossHours:         reg.Histogram("sim.loss_hours", obs.ExpBuckets(1, 4, 24)),
	}
	for k := evNodeFail; k < numEventKinds; k++ {
		m.byKind[k] = reg.Counter("sim.events." + k.String())
	}
	for c := LossTolerance; c < lossCauseCount; c++ {
		m.byCause[c] = reg.Counter("sim.loss." + c.String())
	}
	return m
}

// Observer customizes an instrumented simulation run. The zero value
// disables everything.
type Observer struct {
	// Metrics receives event counts, repair-duration samples and
	// loss-cause tallies (nil = off).
	Metrics *Metrics
	// OnMission, when non-nil, runs after every completed mission —
	// progress reporting for long Monte Carlo runs.
	OnMission func(i int, r LossResult)
}
