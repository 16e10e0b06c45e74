package plan

import "repro/internal/obs"

// searchMetrics is the package's bundle of metric handles on one
// registry — the registry of the span a search runs under (obs.Bundle),
// resolved once per search: the candidate accounting (enumerated /
// infeasible / pruned by target / pruned by dominance / exactly
// confirmed), the topology-group batching (group count and cells per
// group — the factorization reuse the batch solver gets), and the most
// recent search's prune ratio and frontier size. A search's wall time is
// its span's fold, trace.plan.search.seconds.
type searchMetrics struct {
	searches *obs.Counter

	enumerated      *obs.Counter
	infeasible      *obs.Counter
	prunedTarget    *obs.Counter
	prunedDominated *obs.Counter
	confirmed       *obs.Counter

	groups     *obs.Counter
	groupCells *obs.Histogram

	pruneRatio   *obs.Gauge
	frontierSize *obs.Gauge
}

func newSearchMetrics(reg *obs.Registry) *searchMetrics {
	return &searchMetrics{
		searches: reg.Counter("plan.searches"),

		enumerated:      reg.Counter("plan.candidates.enumerated"),
		infeasible:      reg.Counter("plan.candidates.infeasible"),
		prunedTarget:    reg.Counter("plan.candidates.pruned_target"),
		prunedDominated: reg.Counter("plan.candidates.pruned_dominated"),
		confirmed:       reg.Counter("plan.candidates.confirmed"),

		groups:     reg.Counter("plan.batch.groups"),
		groupCells: reg.Histogram("plan.batch.group_cells", obs.ExpBuckets(1, 4, 10)),

		pruneRatio:   reg.Gauge("plan.last_prune_ratio"),
		frontierSize: reg.Gauge("plan.last_frontier_size"),
	}
}

// searchDone records one completed search. Nil-safe.
func (m *searchMetrics) searchDone(st *Stats) {
	if m == nil {
		return
	}
	m.searches.Inc()
	m.enumerated.Add(int64(st.Enumerated))
	m.infeasible.Add(int64(st.Infeasible))
	m.prunedTarget.Add(int64(st.PrunedTarget))
	m.prunedDominated.Add(int64(st.PrunedDominated))
	m.confirmed.Add(int64(st.Confirmed))
	m.groups.Add(int64(st.TopologyGroups))
	m.pruneRatio.Set(st.PruneRatio)
	m.frontierSize.Set(float64(st.FrontierSize))
}

// observeGroupCells records the size of one topology group — the number
// of cells that shared a single symbolic factorization. Nil-safe.
func (m *searchMetrics) observeGroupCells(n int) {
	if m != nil {
		m.groupCells.Observe(float64(n))
	}
}
