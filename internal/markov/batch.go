package markov

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/obs"
)

// BatchSolver is the package's one absorbing-chain solver. It solves
// many absorption problems that share one frozen chain topology,
// structure-of-arrays style. Bind captures the topology once — transient
// indexing, the CSR pattern of R = -Q_B, the dense/sparse routing
// decision and (on the sparse route) the symbolic factorization; Fill
// scatters one refilled chain's numeric values into its row of a reused
// value slab; SolveCell runs Refactor+Solve against that row. After the
// first chunk every per-cell step is allocation-free: the per-cell cost
// is a value refill plus the numeric factorization, with all pattern
// work, span bookkeeping and metric timers amortized to one per chunk
// (StartChunk).
//
// Routing: dense partial-pivot LU below the SetSparseMinStates crossover
// or above the density guard (sparseRoute); otherwise sparse static-pivot
// LU with the τ-nonnegativity certificate and a dense fallback. A
// per-call solve (MTTA, Absorption, RateSensitivities) is the same
// machinery on a single cell.
//
// A BatchSolver is not safe for concurrent use; each worker owns one
// (see AcquireBatchSolver).
type BatchSolver struct {
	// Bound topology: n chain states, m = len(trans) transient rows.
	n       int
	label   string
	nedges  int
	initial int
	initRow int
	trans   []int
	pos     []int
	// CSR pattern of R shared by every cell: rowptr/col, with diagSlot
	// locating row i's diagonal and (edgeIdx, edgeSlot) pairing each
	// transient-target chain edge with its value slot. Absorbing-target
	// edges have no slot — they reach R only through the diagonal's exit
	// sum, which Fill reads from the chain's precomputed exits.
	rowptr   []int
	col      []int
	diagSlot []int
	edgeIdx  []int
	edgeSlot []int
	nnz      int

	// Routing captured at Bind: sparseRoute selects the sparse path; num
	// is the shared numeric factorization (nil if symbolic analysis
	// failed: every cell then falls back to dense).
	sparseRoute bool
	num         *sparse.Numeric
	cache       topoCache
	view        sparse.CSR

	// vals is the SoA slab: cell i's matrix values are
	// vals[i*nnz:(i+1)*nnz], row-major within the shared pattern.
	vals []float64

	// Per-solve scratch.
	rhs, tau, work []float64
	r              *linalg.Matrix
	f              linalg.LU
	vs             validateScratch

	// own is the private frozen copy through which a one-cell solve
	// binds a mutable chain, leaving the caller's chain unsealed.
	own Chain

	// Chunk accounting since StartChunk: cells solved, whether the
	// latest SolveCell succeeded, and on which route.
	solved            int
	lastOK, lastDense bool
}

// NewBatchSolver returns an empty BatchSolver; buffers are sized by Bind
// and Cells.
func NewBatchSolver() *BatchSolver {
	return &BatchSolver{r: linalg.New(0, 0)}
}

// maxPooled bounds the free list: enough for every worker of a busy
// process, never a leak.
const maxPooled = 64

// pool is the one recycler of BatchSolvers: every per-call MTTA and
// every batched chunk state takes its solver from it. It is a LIFO free
// list rather than a sync.Pool so the most recently released solver,
// whose topology cache is the warmest, is handed out next, and caches
// survive garbage collection: consecutive solves of one topology pay the
// symbolic analysis once.
var pool struct {
	sync.Mutex
	free []*BatchSolver
}

// AcquireBatchSolver returns a pooled BatchSolver.
func AcquireBatchSolver() *BatchSolver {
	pool.Lock()
	defer pool.Unlock()
	n := len(pool.free)
	if n == 0 {
		return NewBatchSolver()
	}
	b := pool.free[n-1]
	pool.free = pool.free[:n-1]
	return b
}

// ReleaseBatchSolver hands a BatchSolver back for recycling. The caller
// must not use it afterwards.
func ReleaseBatchSolver(b *BatchSolver) {
	pool.Lock()
	if len(pool.free) < maxPooled {
		pool.free = append(pool.free, b)
	}
	pool.Unlock()
}

// Bind captures c's topology: state indexing, the CSR pattern of the
// absorption matrix, the dense/sparse route and — on the sparse route —
// the symbolic factorization (reused across Binds of the same pattern
// via the solver's MRU cache; a fresh analysis is traced as
// "sparse.symbolic"). The chain must be frozen; its current rates are
// irrelevant. Binding does not validate rates — ValidateRates does, per
// cell.
func (b *BatchSolver) Bind(ctx context.Context, c *Chain) error {
	if !c.Frozen() {
		return fmt.Errorf("markov: BatchSolver requires a frozen chain")
	}
	if len(c.names) == 0 {
		return fmt.Errorf("markov: chain has no states")
	}
	if c.initial < 0 {
		return fmt.Errorf("markov: chain has no initial state")
	}
	if len(c.absorbing) == 0 {
		return fmt.Errorf("markov: chain has no absorbing state")
	}
	b.bindPattern(c)
	if b.sparseRoute {
		// A failed analysis leaves num nil: SolveCell then falls back
		// to dense per cell — counted, never silent.
		b.num, _ = b.cache.lookup(ctx, &b.view)
	}
	return nil
}

// bindPattern is Bind's assembly half: transient indexing, the CSR
// pattern of R (transient successors ascending — already target-sorted,
// and the state→row map is monotone — with the diagonal merged in
// place), the solve vectors and the route. It leaves num unset.
func (b *BatchSolver) bindPattern(c *Chain) {
	b.n = c.NumStates()
	b.label = c.Label()
	b.nedges = len(c.edges)
	if cap(b.pos) < b.n {
		b.pos = make([]int, b.n)
	} else {
		b.pos = b.pos[:b.n]
	}
	b.trans = b.trans[:0]
	for i := 0; i < b.n; i++ {
		if c.absorbing[i] {
			b.pos[i] = -1
		} else {
			b.pos[i] = len(b.trans)
			b.trans = append(b.trans, i)
		}
	}
	b.initial = c.initial
	b.initRow = b.pos[c.initial]
	m := len(b.trans)

	if cap(b.rowptr) < m+1 {
		b.rowptr = make([]int, m+1)
	} else {
		b.rowptr = b.rowptr[:m+1]
	}
	b.rowptr[0] = 0
	if cap(b.diagSlot) < m {
		b.diagSlot = make([]int, m)
	} else {
		b.diagSlot = b.diagSlot[:m]
	}
	b.col = b.col[:0]
	b.edgeIdx = b.edgeIdx[:0]
	b.edgeSlot = b.edgeSlot[:0]
	for row, st := range b.trans {
		diagDone := false
		for p := c.ptr[st]; p < c.ptr[st+1]; p++ {
			col := b.pos[c.edges[p].To]
			if col < 0 {
				continue
			}
			if !diagDone && col > row {
				b.diagSlot[row] = len(b.col)
				b.col = append(b.col, row)
				diagDone = true
			}
			b.edgeIdx = append(b.edgeIdx, p)
			b.edgeSlot = append(b.edgeSlot, len(b.col))
			b.col = append(b.col, col)
		}
		if !diagDone {
			b.diagSlot[row] = len(b.col)
			b.col = append(b.col, row)
		}
		b.rowptr[row+1] = len(b.col)
	}
	b.nnz = len(b.col)

	b.rhs = resizeFloats(b.rhs, m)
	b.tau = resizeFloats(b.tau, m)
	b.work = resizeFloats(b.work, m)
	for i := range b.rhs {
		b.rhs[i] = 0
	}
	if b.initRow >= 0 {
		b.rhs[b.initRow] = 1
	}

	b.num = nil
	b.sparseRoute = sparseRoute(m, b.nnz)
	b.Cells(1) // the pattern views need a full-length value row
	b.view = sparse.CSR{Rows: m, Cols: m, RowPtr: b.rowptr, Col: b.col, Val: b.vals[:b.nnz]}
}

// Cells ensures the value slab holds at least n cells (monotonic growth;
// existing cell rows are preserved).
func (b *BatchSolver) Cells(n int) {
	if need := n * b.nnz; cap(b.vals) < need {
		grown := make([]float64, need)
		copy(grown, b.vals)
		b.vals = grown
	} else {
		b.vals = b.vals[:need]
	}
}

// ValidateRates runs Chain.Validate's checks on c against the bound
// topology: identical checks, identical order, identical messages, no
// allocation. The structural checks were settled at Bind, so only the
// rate-dependent ones run — every transient row has an edge and a
// non-zero exit rate, and some absorbing state is reachable over
// positive-rate edges — with the bound state→row map standing in for
// the chain's absorbing-state set. A chain that does not match the
// bound topology gets the full Chain.Validate.
func (b *BatchSolver) ValidateRates(c *Chain) error {
	if !b.bound(c) {
		return c.validate(&b.vs)
	}
	for _, st := range b.trans {
		if c.ptr[st+1] == c.ptr[st] || c.exit[st] == 0 {
			return fmt.Errorf("markov: transient state %q has no outgoing transitions", c.names[st])
		}
	}
	if !c.absorptionReachable(&b.vs, b.pos) {
		return fmt.Errorf("markov: no absorbing state is reachable from the initial state")
	}
	return nil
}

// bound reports whether c has the bound topology's shape: frozen, with
// the same state and edge counts, label, initial state and number of
// absorbing states. Fill relies on the same identity.
func (b *BatchSolver) bound(c *Chain) bool {
	return c.Frozen() && len(c.names) == b.n && len(c.edges) == b.nedges &&
		c.label == b.label && c.initial == b.initial &&
		len(c.absorbing) == b.n-len(b.trans)
}

// Fill scatters c's current rates into cell's row of the value slab.
// c must be a chain of the bound topology (any refill of the chain Bind
// saw, or a pooled sibling of the same family); cell must be below the
// Cells bound. The scattered row is R = -Q_B on the bound pattern:
// diagonal = the chain's precomputed exit sum (sorted summation order),
// off-diagonals = -rate.
func (b *BatchSolver) Fill(cell int, c *Chain) {
	if c.NumStates() != b.n || len(c.edges) != b.nedges || c.Label() != b.label {
		panic(fmt.Sprintf("markov: Fill chain (%d states, %d edges, label %q) does not match bound topology (%d, %d, %q)",
			c.NumStates(), len(c.edges), c.Label(), b.n, b.nedges, b.label))
	}
	v := b.vals[cell*b.nnz : (cell+1)*b.nnz]
	for row, st := range b.trans {
		v[b.diagSlot[row]] = c.exit[st]
	}
	for i, e := range b.edgeIdx {
		v[b.edgeSlot[i]] = -c.edges[e].Rate
	}
}

// StartChunk opens one "markov.batch" span and one chunk timer covering
// the SolveCell calls that follow; the returned stop function closes
// both and accounts the chunk's absorption solves: the solved-cell count
// onto markov.absorption.solves and markov.absorption.states, and the
// residual of the chunk's last cell, computed on the route that cell
// took, into markov.absorption.last_residual. A chunk whose last cell
// failed sets no residual. One span and one set of metric updates cover
// the whole chunk — that is the amortization the batch path exists for;
// the chunk's time is markov.batch.chunk_seconds, never
// markov.absorption.seconds.
func (b *BatchSolver) StartChunk(ctx context.Context, cells int) func() {
	_, sp := obs.StartSpan(ctx, "markov.batch")
	if sp != nil {
		sp.SetAttr("cells", cells)
		sp.SetAttr("states", b.n)
		sp.SetAttr("sparse", b.sparseRoute)
	}
	b.solved, b.lastOK = 0, false
	stop := batchChunkTimer(cells)
	return func() {
		sp.End()
		if stop != nil {
			stop()
			batchSolvesDone(b.solved, b.n, b.lastOK, b.lastResidual)
		}
	}
}

// lastResidual is the ∞-norm residual ‖Rᵀτ − e‖ of the latest solved
// cell on the route that cell took. Only valid while lastOK: the cell's
// matrix and τ are still in place.
func (b *BatchSolver) lastResidual() float64 {
	if b.lastDense {
		return absorptionResidual(b.r, b.tau, b.initRow)
	}
	return sparseResidual(&b.view, b.tau, b.initRow, b.work)
}

// cellSolved records a solved cell for the chunk's accounting and
// returns its MTTA.
func (b *BatchSolver) cellSolved(dense bool) float64 {
	b.solved++
	b.lastOK, b.lastDense = true, dense
	return linalg.Sum(b.tau)
}

// solveOnes returns y = R⁻¹·1 (y_i = MTTA from transient row i) from
// the factors of the latest solved cell, on the route that cell took.
// Only valid while lastOK.
func (b *BatchSolver) solveOnes() []float64 {
	m := len(b.trans)
	y := make([]float64, m)
	if b.lastDense {
		return b.f.SolveInto(y, linalg.Ones(m))
	}
	return b.num.SolveInto(y, linalg.Ones(m))
}

// SolveCell solves the filled cell for its mean time to absorption,
// reusing all solver storage (0 allocs after warmup): sparse
// Refactor+SolveTranspose with the τ certificate and dense partial-pivot
// fallback on the sparse route, dense LU otherwise. It records no spans
// and no metrics of its own: StartChunk's stop function accounts the
// chunk's solves.
func (b *BatchSolver) SolveCell(cell int) (float64, error) {
	return b.solveCell(context.Background(), cell)
}

// solveCell is SolveCell tracing its stages — "sparse.refactor",
// "sparse.solve", "dense.solve" (with fallback=true after a sparse
// failure) — as children of ctx's active span, if any. The batched
// chunk loop passes no span, so it emits none per cell.
func (b *BatchSolver) solveCell(ctx context.Context, cell int) (float64, error) {
	if b.initRow < 0 {
		return 0, nil // initial state is absorbing
	}
	b.lastOK = false
	m := len(b.trans)
	v := b.vals[cell*b.nnz : (cell+1)*b.nnz]
	if b.sparseRoute {
		if b.num != nil {
			b.view.Val = v
			_, rsp := obs.StartSpan(ctx, "sparse.refactor")
			err := b.num.Refactor(&b.view)
			rsp.End()
			if err == nil {
				// τ_B = π_B(0)·R⁻¹ means Rᵀ·τ = π_B(0).
				_, ssp := obs.StartSpan(ctx, "sparse.solve")
				b.num.SolveTransposeInto(b.tau, b.rhs, b.work)
				ssp.End()
				if tauPlausible(b.tau) {
					sparseSolveDone(&b.view)
					return b.cellSolved(false), nil
				}
			}
		}
		// Zero pivot, implausible τ, or no symbolic analysis: redo with
		// dense partial pivoting, the authoritative fallback.
		sparseFellBack()
	}
	_, dsp := obs.StartSpan(ctx, "dense.solve")
	if dsp != nil && b.sparseRoute {
		dsp.SetAttr("fallback", true)
	}
	defer dsp.End()
	b.r.Reshape(m, m)
	for row := 0; row < m; row++ {
		for p := b.rowptr[row]; p < b.rowptr[row+1]; p++ {
			b.r.Set(row, b.col[p], v[p])
		}
	}
	if err := linalg.FactorizeInto(&b.f, b.r); err != nil {
		return 0, fmt.Errorf("markov: absorption matrix: %w", err)
	}
	b.f.SolveTransposeInto(b.tau, b.rhs, b.work)
	return b.cellSolved(true), nil
}

// solveChain is the one-cell solve behind MTTA, Absorption and
// RateSensitivities:
// validate c (Chain.Validate's checks and messages, in reused scratch),
// then bind, fill and solve it as cell 0 under a "markov.solve" span,
// accounted per call in markov.absorption.*. A mutable chain is bound
// through the solver's private frozen copy; the caller's chain stays
// mutable.
func (b *BatchSolver) solveChain(ctx context.Context, c *Chain) (float64, error) {
	if err := c.validate(&b.vs); err != nil {
		return 0, err
	}
	ctx, sp := obs.StartSpan(ctx, "markov.solve")
	if sp != nil {
		sp.SetAttr("states", c.NumStates())
	}
	defer sp.End()
	if !c.Frozen() {
		c = b.frozenCopy(c)
	}
	timer := absorptionTimer(c.NumStates())
	if err := b.Bind(ctx, c); err != nil {
		return 0, err
	}
	if b.initRow < 0 {
		return 0, nil // initial state is absorbing
	}
	b.Fill(0, c)
	mtta, err := b.solveCell(ctx, 0)
	if err == nil && timer != nil {
		timer(b.lastResidual())
	}
	return mtta, err
}

// frozenCopy lays the mutable chain c out in the solver's private
// frozen Chain: shared names and absorbing set, CSR adjacency and exit
// sums in reused buffers — the same layout and summation order Freeze
// produces, so the solve is bit-identical to solving c.Freeze().
func (b *BatchSolver) frozenCopy(c *Chain) *Chain {
	f := &b.own
	f.names, f.absorbing, f.initial, f.label = c.names, c.absorbing, c.initial, c.label
	f.ptr, f.edges = c.csrInto(f.ptr, f.edges)
	f.exit = resizeFloats(f.exit, len(c.names))
	f.recomputeExits()
	return f
}
