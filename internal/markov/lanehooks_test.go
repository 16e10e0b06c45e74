package markov

// Hooks for the external lane tests (program_test.go).

import (
	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
)

// LaneStats returns the counts of the bound lane program, and whether
// one is bound.
func (b *BatchSolver) LaneStats() (sparse.ProgramStats, bool) {
	if b.lp == nil {
		return sparse.ProgramStats{}, false
	}
	return b.lp.prog.Stats(), true
}

// ReachVerdicts returns, for class values vals of the bound program,
// the fill's reachability verdict (through the memo) and a fresh
// depth-first search's.
func (b *BatchSolver) ReachVerdicts(vals []float64) (fill, search bool) {
	_, pos, mask := signs(vals)
	return b.reachable(b.progEm, vals, pos, true, mask), b.absorptionReachable(b.progEm, vals)
}

// LaneBlock runs Solve's lane path alone on four cells' class values:
// whether the lane fill passed, and if it did, the MTTAs and the count
// of the leading lanes the program committed.
func (b *BatchSolver) LaneBlock(vals [][]float64) (fills bool, mtta [sparse.Lanes]float64, committed int) {
	if b.lp == nil || !b.fillLanes(vals) {
		return false, mtta, 0
	}
	return true, mtta, b.runLanes(&mtta)
}

// SolvedInLanes reports whether the latest Solve solved its last cell in
// the lane program: four cells, every lane committed, no one-cell solve.
func (b *BatchSolver) SolvedInLanes() bool { return b.last == routeLane }

// SparseSolve runs SolveCell's sparse route alone on cell, without the
// dense fallback: the MTTA, and whether the route keeps it (nonzero
// pivots and a plausible τ).
func (b *BatchSolver) SparseSolve(cell int) (float64, bool) {
	b.view.Val = b.vals[cell*b.nnz : (cell+1)*b.nnz]
	if b.num.Refactor(&b.view) != nil {
		return 0, false
	}
	b.num.SolveTransposeInto(b.tau, b.rhs, b.work)
	return linalg.Sum(b.tau), tauPlausible(b.tau)
}
