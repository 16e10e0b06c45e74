package rebuild

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Package-level instrumentation: the rebuild-rate model is called from
// deep inside the analysis and experiment sweeps, so telemetry is wired
// once per process rather than threaded through every signature. The
// pointer is atomic and nil by default — un-instrumented Compute calls
// pay one atomic load.
type rebuildMetrics struct {
	computes        *obs.Counter
	nodeDisk        *obs.Counter
	nodeNetwork     *obs.Counter
	driveDisk       *obs.Counter
	driveNetwork    *obs.Counter
	lastNodeRate    *obs.Gauge
	lastDriveRate   *obs.Gauge
	lastRestripeRat *obs.Gauge
}

var instr atomic.Pointer[rebuildMetrics]

// Instrument routes rebuild-rate telemetry into reg: how many rate
// computations ran, how often each rebuild path was network- vs
// disk-limited (the Figure 17 decision), and the latest computed rates.
// Pass nil to disable again.
//
// Compute records each call. Callers that compute many rate sets in one
// unit of work compute them through a Tally and flush it once: the
// design-space search once per (internal, fault tolerance, stripe
// width) block, the batched sweep engine once per chunk. The counters
// reach the same totals; the gauges hold the last set of the latest
// flush.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&rebuildMetrics{
		computes:        reg.Counter("rebuild.computes"),
		nodeDisk:        reg.Counter("rebuild.node_bottleneck.disk"),
		nodeNetwork:     reg.Counter("rebuild.node_bottleneck.network"),
		driveDisk:       reg.Counter("rebuild.drive_bottleneck.disk"),
		driveNetwork:    reg.Counter("rebuild.drive_bottleneck.network"),
		lastNodeRate:    reg.Gauge("rebuild.last_node_rebuild_per_hour"),
		lastDriveRate:   reg.Gauge("rebuild.last_drive_rebuild_per_hour"),
		lastRestripeRat: reg.Gauge("rebuild.last_restripe_per_hour"),
	})
}

// record folds one flushed tally into the registry.
func (m *rebuildMetrics) record(tl *Tally) {
	add(m.computes, tl.computes)
	add(m.nodeDisk, tl.nodeDisk)
	add(m.nodeNetwork, tl.nodeNetwork)
	add(m.driveDisk, tl.driveDisk)
	add(m.driveNetwork, tl.driveNetwork)
	m.lastNodeRate.Set(tl.last.NodeRebuild)
	m.lastDriveRate.Set(tl.last.DriveRebuild)
	m.lastRestripeRat.Set(tl.last.Restripe)
}

// add adds n to c unless n is zero: an atomic add of zero still takes
// the counter's cache line from the other workers.
func add(c *obs.Counter, n int64) {
	if n != 0 {
		c.Add(n)
	}
}
