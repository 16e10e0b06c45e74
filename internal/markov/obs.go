package markov

import (
	"context"
	"time"

	"repro/internal/obs"
)

// solverMetrics is the package's bundle of metric handles on one
// registry: the registry of the caller's span (obs.Bundle), resolved
// once per solve call or batch chunk. A solve under no span, or under a
// tracer that folds into no registry, records nothing.
//
// A per-call absorption solve (MTTA, Absorption, RateSensitivities)
// counts itself in markov.absorption.solves, observes its chain size and
// sets markov.absorption.last_residual to its ∞-norm residual
// ‖Rᵀτ − e‖ (one extra mat-vec, O(n²) against the solve's O(n³)).
// Batched cells are accounted once per chunk (StartChunk). Wall time is
// the span folds' business: trace.markov.solve.seconds and
// trace.markov.batch.seconds.
type solverMetrics struct {
	absorptionSolves *obs.Counter
	absorptionStates *obs.Histogram
	residual         *obs.Gauge

	transientSolves  *obs.Counter
	transientSeconds *obs.Histogram
	transientTerms   *obs.Histogram
	truncationError  *obs.Gauge

	sparseSolves        *obs.Counter
	sparseSymbolicBuild *obs.Counter
	sparseSymbolicReuse *obs.Counter
	sparseFallbacks     *obs.Counter
	sparseNNZ           *obs.Histogram
	sparseFill          *obs.Histogram

	batchChunks *obs.Counter
	batchCells  *obs.Counter
	batchSize   *obs.Histogram
}

func newSolverMetrics(reg *obs.Registry) *solverMetrics {
	return &solverMetrics{
		absorptionSolves: reg.Counter("markov.absorption.solves"),
		absorptionStates: reg.Histogram("markov.absorption.states", obs.ExpBuckets(2, 2, 12)),
		residual:         reg.Gauge("markov.absorption.last_residual"),
		transientSolves:  reg.Counter("markov.transient.solves"),
		transientSeconds: reg.Histogram("markov.transient.seconds", obs.ExpBuckets(1e-6, 4, 16)),
		transientTerms:   reg.Histogram("markov.transient.terms", obs.ExpBuckets(1, 4, 16)),
		truncationError:  reg.Gauge("markov.transient.last_truncation"),

		sparseSolves:        reg.Counter("markov.sparse.solves"),
		sparseSymbolicBuild: reg.Counter("markov.sparse.symbolic_builds"),
		sparseSymbolicReuse: reg.Counter("markov.sparse.symbolic_reuse"),
		sparseFallbacks:     reg.Counter("markov.sparse.dense_fallbacks"),
		sparseNNZ:           reg.Histogram("markov.sparse.nnz", obs.ExpBuckets(4, 4, 12)),
		sparseFill:          reg.Histogram("markov.sparse.fill_ratio", obs.ExpBuckets(1, 2, 8)),

		batchChunks: reg.Counter("markov.batch.chunks"),
		batchCells:  reg.Counter("markov.batch.cells"),
		batchSize:   reg.Histogram("markov.batch.chunk_cells", obs.ExpBuckets(1, 4, 10)),
	}
}

// metricsFrom resolves the bundle on ctx's registry, nil without one.
func metricsFrom(ctx context.Context) *solverMetrics {
	return obs.Bundle(ctx, newSolverMetrics)
}

// account flushes the solver's accounting since its last flush into m
// and clears it: the bind's symbolic analysis (built or reused), the
// solved cells onto the absorption count and chain-size histogram, the
// sparse-route solves with their nnz and the dense fallbacks, and —
// when the latest cell solved — its residual, computed only here. A
// nil m records nothing.
func (b *BatchSolver) account(m *solverMetrics) {
	if m != nil {
		switch b.symbolic {
		case symbolicBuilt:
			m.sparseSymbolicBuild.Inc()
			m.sparseFill.Observe(b.num.Symbolic().FillRatio())
		case symbolicReused:
			m.sparseSymbolicReuse.Inc()
		}
		m.absorptionSolves.Add(int64(b.solved))
		m.absorptionStates.ObserveN(float64(b.n), int64(b.solved))
		if b.sparseSolved > 0 {
			m.sparseSolves.Add(int64(b.sparseSolved))
			m.sparseNNZ.ObserveN(float64(b.view.NNZ()), int64(b.sparseSolved))
		}
		if b.fellBack > 0 {
			m.sparseFallbacks.Add(int64(b.fellBack))
		}
		if b.last != routeNone {
			m.residual.Set(b.lastResidual())
		}
	}
	b.symbolic = symbolicNone
	b.solved, b.sparseSolved, b.fellBack = 0, 0, 0
}

// transientDone records one uniformization run started at start.
func (m *solverMetrics) transientDone(start time.Time, terms int, truncation float64) {
	m.transientSolves.Inc()
	m.transientSeconds.Observe(time.Since(start).Seconds())
	m.transientTerms.Observe(float64(terms))
	m.truncationError.Set(truncation)
}
