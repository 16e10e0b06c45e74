package storage

import "repro/internal/obs"

// Metrics bundles the storage substrate's registry handles. A nil
// *Metrics (the default) disables instrumentation: every observation
// site is guarded by one nil check under the System's mutex.
type Metrics struct {
	// Rebuild pass totals.
	Rebuilds           *obs.Counter
	ShardsRebuilt      *obs.Counter
	RebuildBytes       *obs.Counter
	RebuildObjectsLost *obs.Counter
	// Scrub pass totals.
	Scrubs           *obs.Counter
	ShardsChecked    *obs.Counter
	FaultsRepaired   *obs.Counter
	ScrubObjectsLost *obs.Counter
	// Injected failures.
	NodeFailures  *obs.Counter
	DriveFailures *obs.Counter
	LatentFaults  *obs.Counter
}

// NewMetrics registers the substrate's metrics under the "storage."
// prefix.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Rebuilds:           reg.Counter("storage.rebuilds"),
		ShardsRebuilt:      reg.Counter("storage.rebuild.shards"),
		RebuildBytes:       reg.Counter("storage.rebuild.bytes"),
		RebuildObjectsLost: reg.Counter("storage.rebuild.objects_lost"),
		Scrubs:             reg.Counter("storage.scrubs"),
		ShardsChecked:      reg.Counter("storage.scrub.shards_checked"),
		FaultsRepaired:     reg.Counter("storage.scrub.faults_repaired"),
		ScrubObjectsLost:   reg.Counter("storage.scrub.objects_lost"),
		NodeFailures:       reg.Counter("storage.node_failures"),
		DriveFailures:      reg.Counter("storage.drive_failures"),
		LatentFaults:       reg.Counter("storage.latent_faults"),
	}
}

// SetMetrics attaches (or, with nil, detaches) a metrics bundle. Safe to
// call concurrently with operations.
func (s *System) SetMetrics(m *Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
}
