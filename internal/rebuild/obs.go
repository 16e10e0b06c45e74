package rebuild

import (
	"context"

	"repro/internal/obs"
)

// rebuildMetrics is the package's bundle of metric handles on one
// registry — the registry of the span a Tally is flushed under
// (obs.Bundle): how many rate computations ran, how often each rebuild
// path was network- vs disk-limited (the Figure 17 decision), and the
// latest computed rates.
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

func newRebuildMetrics(reg *obs.Registry) *rebuildMetrics {
	return &rebuildMetrics{
		computes:        reg.Counter("rebuild.computes"),
		nodeDisk:        reg.Counter("rebuild.node_bottleneck.disk"),
		nodeNetwork:     reg.Counter("rebuild.node_bottleneck.network"),
		driveDisk:       reg.Counter("rebuild.drive_bottleneck.disk"),
		driveNetwork:    reg.Counter("rebuild.drive_bottleneck.network"),
		lastNodeRate:    reg.Gauge("rebuild.last_node_rebuild_per_hour"),
		lastDriveRate:   reg.Gauge("rebuild.last_drive_rebuild_per_hour"),
		lastRestripeRat: reg.Gauge("rebuild.last_restripe_per_hour"),
	}
}

// Flush records the tallied computations on the registry of ctx's span,
// if any — the counters by their totals, the rate gauges by the last
// computed set — and empties the tally. An empty tally records nothing
// and resolves nothing.
//
// Callers that compute many rate sets in one unit of work flush once
// per unit: a per-call analysis once per call, the design-space search
// once per (internal, fault tolerance, stripe width) block, the batched
// sweep engine once per chunk.
func (tl *Tally) Flush(ctx context.Context) {
	if tl.computes == 0 {
		return
	}
	if m := obs.Bundle(ctx, newRebuildMetrics); m != nil {
		add(m.computes, tl.computes)
		add(m.nodeDisk, tl.nodeDisk)
		add(m.nodeNetwork, tl.nodeNetwork)
		add(m.driveDisk, tl.driveDisk)
		add(m.driveNetwork, tl.driveNetwork)
		m.lastNodeRate.Set(tl.last.NodeRebuild)
		m.lastDriveRate.Set(tl.last.DriveRebuild)
		m.lastRestripeRat.Set(tl.last.Restripe)
	}
	*tl = Tally{}
}

// add adds n to c unless n is zero: an atomic add of zero still takes
// the counter's cache line from the other workers.
func add(c *obs.Counter, n int64) {
	if n != 0 {
		c.Add(n)
	}
}
