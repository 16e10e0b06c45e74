package markov

import (
	"sync/atomic"
	"time"

	"repro/internal/linalg/sparse"
	"repro/internal/obs"
)

// Package-level solver instrumentation, nil (one atomic load) by
// default. The chain solvers run deep inside analysis sweeps and
// figure generators, so the wiring is per-process: Instrument once in
// the command, read the registry snapshot at the end.
type solverMetrics struct {
	absorptionSolves  *obs.Counter
	absorptionSeconds *obs.Histogram
	absorptionStates  *obs.Histogram
	residual          *obs.Gauge

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

	batchChunks  *obs.Counter
	batchCells   *obs.Counter
	batchSeconds *obs.Histogram
	batchSize    *obs.Histogram
}

var instr atomic.Pointer[solverMetrics]

// Instrument routes solver telemetry into reg: solve counts and chain
// sizes for the absorption (MTTDL) path, uniformization term counts for
// the transient path, and the most recent solution residuals. Pass nil
// to disable again.
//
// A per-cell absorption solve (MTTA) counts itself, observes its wall
// time into markov.absorption.seconds and its chain size, and sets
// markov.absorption.last_residual to its ∞-norm residual ‖Rᵀτ − e‖ (one
// extra mat-vec, O(n²) against the solve's O(n³)). Batched cells
// (BatchSolver) are accounted once per chunk when StartChunk's stop
// function runs: the chunk's solved cells are added to the solve count
// and the chain-size histogram, one residual — that of the chunk's
// last cell, if it solved — is computed and set, and the chunk's wall
// time goes to markov.batch.chunk_seconds; batched cells never feed
// markov.absorption.seconds.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&solverMetrics{
		absorptionSolves:  reg.Counter("markov.absorption.solves"),
		absorptionSeconds: reg.Histogram("markov.absorption.seconds", obs.ExpBuckets(1e-6, 4, 16)),
		absorptionStates:  reg.Histogram("markov.absorption.states", obs.ExpBuckets(2, 2, 12)),
		residual:          reg.Gauge("markov.absorption.last_residual"),
		transientSolves:   reg.Counter("markov.transient.solves"),
		transientSeconds:  reg.Histogram("markov.transient.seconds", obs.ExpBuckets(1e-6, 4, 16)),
		transientTerms:    reg.Histogram("markov.transient.terms", obs.ExpBuckets(1, 4, 16)),
		truncationError:   reg.Gauge("markov.transient.last_truncation"),

		sparseSolves:        reg.Counter("markov.sparse.solves"),
		sparseSymbolicBuild: reg.Counter("markov.sparse.symbolic_builds"),
		sparseSymbolicReuse: reg.Counter("markov.sparse.symbolic_reuse"),
		sparseFallbacks:     reg.Counter("markov.sparse.dense_fallbacks"),
		sparseNNZ:           reg.Histogram("markov.sparse.nnz", obs.ExpBuckets(4, 4, 12)),
		sparseFill:          reg.Histogram("markov.sparse.fill_ratio", obs.ExpBuckets(1, 2, 8)),

		batchChunks:  reg.Counter("markov.batch.chunks"),
		batchCells:   reg.Counter("markov.batch.cells"),
		batchSeconds: reg.Histogram("markov.batch.chunk_seconds", obs.ExpBuckets(1e-5, 4, 12)),
		batchSize:    reg.Histogram("markov.batch.chunk_cells", obs.ExpBuckets(1, 4, 10)),
	})
}

// sparseFellBack records a solve that started sparse but was redone with
// dense partial pivoting (zero pivot or implausible solution).
func sparseFellBack() {
	if m := instr.Load(); m != nil {
		m.sparseFallbacks.Inc()
	}
}

// sparseReuseHit records a symbolic-factorization cache hit (a solve
// that skipped ordering + symbolic analysis entirely).
func sparseReuseHit() {
	if m := instr.Load(); m != nil {
		m.sparseSymbolicReuse.Inc()
	}
}

// sparseSymbolicBuilt records a fresh ordering + symbolic analysis and
// its fill statistics.
func sparseSymbolicBuilt(s *sparse.Symbolic) {
	if m := instr.Load(); m != nil {
		m.sparseSymbolicBuild.Inc()
		m.sparseFill.Observe(s.FillRatio())
	}
}

// sparseSolveDone records one solve routed through the sparse path.
func sparseSolveDone(a *sparse.CSR) {
	if m := instr.Load(); m != nil {
		m.sparseSolves.Inc()
		m.sparseNNZ.Observe(float64(a.NNZ()))
	}
}

// absorptionTimer returns a stop function that records one per-cell
// absorption solve, or nil when instrumentation is off.
func absorptionTimer(states int) func(residual float64) {
	m := instr.Load()
	if m == nil {
		return nil
	}
	start := time.Now()
	return func(residual float64) {
		m.absorptionSolves.Inc()
		m.absorptionSeconds.Observe(time.Since(start).Seconds())
		m.absorptionStates.Observe(float64(states))
		m.residual.Set(residual)
	}
}

// batchSolvesDone accounts one chunk's batched absorption solves:
// solved cells of a states-state chain and, when the chunk's last cell
// succeeded (lastOK), that cell's residual — computed only here, once
// per chunk.
func batchSolvesDone(solved, states int, lastOK bool, residual func() float64) {
	m := instr.Load()
	if m == nil {
		return
	}
	m.absorptionSolves.Add(int64(solved))
	m.absorptionStates.ObserveN(float64(states), int64(solved))
	if lastOK {
		m.residual.Set(residual())
	}
}

// batchChunkTimer returns a stop function recording one batched solve
// chunk (count, cells, wall time), or nil when instrumentation is off —
// one observation per chunk, never per cell.
func batchChunkTimer(cells int) func() {
	m := instr.Load()
	if m == nil {
		return nil
	}
	start := time.Now()
	return func() {
		m.batchChunks.Inc()
		m.batchCells.Add(int64(cells))
		m.batchSize.Observe(float64(cells))
		m.batchSeconds.Observe(time.Since(start).Seconds())
	}
}

// transientDone records one uniformization run when instrumented.
func transientDone(start time.Time, terms int, truncation float64) {
	m := instr.Load()
	if m == nil {
		return
	}
	m.transientSolves.Inc()
	if !start.IsZero() {
		m.transientSeconds.Observe(time.Since(start).Seconds())
	}
	m.transientTerms.Observe(float64(terms))
	m.truncationError.Set(truncation)
}

// transientStart returns the wall-clock start time only when
// instrumentation is on (zero time otherwise, so the disabled path makes
// no clock calls).
func transientStart() time.Time {
	if instr.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}
