package markov

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/linalg"
	"repro/internal/linalg/sparse"
	"repro/internal/obs"
)

// BatchSolver is the package's one absorbing-chain solver. It solves
// many absorption problems that share one frozen chain topology. Bind
// captures the topology once — transient indexing, the CSR pattern of
// R = -Q_B, the dense/sparse routing decision, whether the whole
// topology reaches absorption, and (on the sparse route) the symbolic
// factorization. Each cell's rates then go straight into its row of a
// reused value slab in one fill pass, which validates them with
// Chain.Validate's rate checks and writes R's diagonal exit sums and
// negated off-diagonals: Fill takes a chain's edge rates, and Solve a
// refill program's O(k) class values (BindProgram). SolveCell solves a
// filled row. Solve is a batched caller's one call: it fills and solves
// one to sparse.Lanes cells and picks their route — the topology's
// four-lane program (bindLanes) for four cells that fill on it, the
// one-cell fill and SolveCell for every other cell, bit for bit alike.
// After the first chunk every per-cell step is allocation-free: all
// pattern work, span bookkeeping and metric updates are amortized to
// one per chunk (StartChunk).
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
	names   []string
	nedges  int
	initial int
	initRow int
	trans   []int
	pos     []int
	// CSR pattern of R shared by every cell: rowptr/col, with diagSlot
	// locating row i's diagonal. The transient rows' chain edges, in
	// sorted edge order, are the row edges: row i's are
	// erow[i]:erow[i+1], and row edge k is chain edge redge[k]. Row edge
	// k targets transient row eto[k] and fills value slot eslot[k]; both
	// are -1 for an edge into an absorbing state, which reaches R only
	// through its row's diagonal exit sum.
	rowptr   []int
	col      []int
	diagSlot []int
	erow     []int
	redge    []int
	eto      []int
	eslot    []int
	nnz      int

	// reachAll reports whether absorption is reachable from the initial
	// state over every row edge: the verdict of the reachability search
	// for any rate vector whose values are all positive.
	reachAll bool

	// Fill orders. The fill reads row edge k's rate from a value vector
	// at em[k], and checks the vector's signs in emission order: value
	// order[i] is emission i's rate. For Fill the vector is the chain's
	// edge rates (copied to edgeRates), em is redge and the order is the
	// edges' (nil); for Solve it is the refill program's class
	// values, em is progEm — the program's edge → emission map progOf
	// composed with its class map, by BindProgram — and the order is the
	// class map, emClass, of nclass classes.
	edgeRates    []float64
	progEm       []int
	progOf       []int
	emClass      []int
	nclass       int
	programBound bool

	// reach holds the reachability verdicts of the bound program's
	// class vectors by their positive classes, for at most 64 classes.
	reach reachMemo

	// Routing captured at Bind: sparseRoute selects the sparse path; num
	// is the shared numeric factorization (nil if symbolic analysis
	// failed: every cell then falls back to dense), topo its cache entry.
	sparseRoute bool
	num         *sparse.Numeric
	topo        *topoEntry
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

	// The bound lane program (nil off the lane route), its lane table and
	// its solve vector.
	lp     *laneProgram
	tab, y []sparse.Lane

	// own is the private frozen copy through which a one-cell solve
	// binds a mutable chain, leaving the caller's chain unsealed.
	own Chain

	// The open chunk (StartChunk): the context its span opens under at
	// its first solve (nil once opened, and outside a chunk), the span,
	// and the cells that reached a solve.
	chunkCtx  context.Context
	chunkSpan *obs.Span
	cells     int

	// Accounting since the last flush (account): the latest Bind's
	// symbolic analysis, cells solved, of them on the sparse route, dense
	// fallbacks from it, and the route of the latest cell if it solved.
	symbolic                       symbolicEvent
	solved, sparseSolved, fellBack int
	last                           route
}

// route is the route the latest solved cell took, whose factors or
// lane table are still in place; routeNone when it failed.
type route uint8

const (
	routeNone   route = iota
	routeSparse       // Refactor and SolveTransposeInto over the slab row
	routeDense        // the dense LU in r and f
	routeLane         // the lane program; the cell is the table's last lane
)

// symbolicEvent is what a Bind's topology-cache lookup did.
type symbolicEvent uint8

const (
	symbolicNone   symbolicEvent = iota // dense route, or a failed analysis
	symbolicBuilt                       // a fresh ordering + symbolic analysis
	symbolicReused                      // a cache hit
)

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
// irrelevant. Binding does not validate rates — the fill does, per
// cell. Bind forgets any program compiled by BindProgram.
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
		var hit bool
		if b.topo, hit, _ = b.cache.lookup(ctx, &b.view); b.topo != nil {
			b.num = b.topo.num
			// View the Symbolic's own pattern, so Refactor's pattern
			// check is a slice-identity test.
			b.view.RowPtr, b.view.Col = b.num.Symbolic().Pattern()
			b.symbolic = symbolicBuilt
			if hit {
				b.symbolic = symbolicReused
			}
		}
	}
	return nil
}

// bindPattern is Bind's assembly half: transient indexing, the CSR
// pattern of R (transient successors ascending — already target-sorted,
// and the state→row map is monotone — with the diagonal merged in
// place), the row edges, the solve vectors and the route.
// It leaves num unset.
func (b *BatchSolver) bindPattern(c *Chain) {
	b.n = c.NumStates()
	b.label = c.Label()
	b.names = c.names
	b.nedges = len(c.edges)
	b.pos = resize(b.pos, b.n)
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

	b.rowptr = resize(b.rowptr, m+1)
	b.rowptr[0] = 0
	b.diagSlot = resize(b.diagSlot, m)
	b.erow = resize(b.erow, m+1)
	b.col, b.redge, b.eto, b.eslot = b.col[:0], b.redge[:0], b.eto[:0], b.eslot[:0]
	for row, st := range b.trans {
		b.erow[row] = len(b.redge)
		diagDone := false
		for p := c.ptr[st]; p < c.ptr[st+1]; p++ {
			col := b.pos[c.edges[p].To]
			b.redge = append(b.redge, p)
			b.eto = append(b.eto, col)
			if col < 0 {
				b.eslot = append(b.eslot, -1)
				continue
			}
			if !diagDone && col > row {
				b.diagSlot[row] = len(b.col)
				b.col = append(b.col, row)
				diagDone = true
			}
			b.eslot = append(b.eslot, len(b.col))
			b.col = append(b.col, col)
		}
		if !diagDone {
			b.diagSlot[row] = len(b.col)
			b.col = append(b.col, row)
		}
		b.rowptr[row+1] = len(b.col)
	}
	b.erow[m] = len(b.redge)
	b.nnz = len(b.col)
	b.programBound = false

	b.rhs = resize(b.rhs, m)
	b.tau = resize(b.tau, m)
	b.work = resize(b.work, m)
	b.edgeRates = resize(b.edgeRates, b.nedges)
	for i := range b.rhs {
		b.rhs[i] = 0
	}
	if b.initRow >= 0 {
		b.rhs[b.initRow] = 1
	}

	b.reachAll = b.absorptionReachable(nil, nil)
	b.num, b.topo, b.lp, b.symbolic = nil, nil, nil, symbolicNone
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

// BindProgram compiles a refill program and its class map against the
// bound topology for Solve: program[i] is the edge index
// (Chain.EdgeIndex) that emission i fills, as in Chain.ApplyRates, and
// class[i] the index of emission i's rate in the class vector a cell is
// filled from (the identity map makes the class vector the emitted rate
// vector). The fused fill needs every edge to carry exactly one
// emission and every emission a class; any other program is refused
// with an error. The class vector has 1 + max(class) values. The slab
// grows to sparse.Lanes cells. On the sparse route it also binds the
// topology's lane program, compiled on the first BindProgram of this
// topology and class map and cached with the symbolic analysis: a
// rebind of a cached topology compiles nothing.
func (b *BatchSolver) BindProgram(program, class []int) error {
	b.programBound, b.lp = false, nil
	if len(program) != b.nedges {
		return fmt.Errorf("markov: refill program has %d emissions for %d edges; want exactly one per edge", len(program), b.nedges)
	}
	if len(class) != len(program) {
		return fmt.Errorf("markov: refill class map has %d entries for %d emissions", len(class), len(program))
	}
	b.progOf = resize(b.progOf, b.nedges)
	for e := range b.progOf {
		b.progOf[e] = -1
	}
	for i, e := range program {
		if e < 0 || e >= b.nedges || b.progOf[e] >= 0 {
			return fmt.Errorf("markov: refill program emission %d targets edge %d, which is out of range or already emitted", i, e)
		}
		b.progOf[e] = i
	}
	b.nclass = 0
	for i, c := range class {
		if c < 0 {
			return fmt.Errorf("markov: refill class map gives emission %d the negative class %d", i, c)
		}
		b.nclass = max(b.nclass, c+1)
	}
	b.emClass = append(b.emClass[:0], class...)
	b.progEm = resize(b.progEm, len(b.redge))
	for k, e := range b.redge {
		b.progEm[k] = class[b.progOf[e]]
	}
	b.programBound, b.reach = true, reachMemo{}
	b.Cells(sparse.Lanes)
	if b.sparseRoute && b.topo != nil && b.initRow >= 0 {
		b.bindLanes()
	}
	return nil
}

// Fill writes c's current rates into cell's row of the value slab, as
// Solve writes the class values c was refilled from, and returns
// Chain.Validate's error for c, if any. c must be a chain of the bound
// topology (any refill of the chain Bind saw, or a pooled sibling of
// the same family) — any other chain panics; cell must be below the
// Cells bound.
func (b *BatchSolver) Fill(cell int, c *Chain) error {
	if !b.bound(c) {
		panic(fmt.Sprintf("markov: Fill chain (%d states, %d edges, label %q) does not match bound topology (%d, %d, %q)",
			c.NumStates(), len(c.edges), c.Label(), b.n, b.nedges, b.label))
	}
	for i, e := range c.edges {
		b.edgeRates[i] = e.Rate
	}
	return b.fill(cell, b.redge, nil, b.edgeRates)
}

// bound reports whether c has the bound topology's shape: frozen, with
// the same state and edge counts, label, initial state and number of
// absorbing states.
func (b *BatchSolver) bound(c *Chain) bool {
	return c.Frozen() && len(c.names) == b.n && len(c.edges) == b.nedges &&
		c.label == b.label && c.initial == b.initial &&
		len(c.absorbing) == b.n-len(b.trans)
}

// fill is the one fill pass behind Fill and Solve: row edge k's
// rate is vals[em[k]], emission i's is vals[order[i]] (vals[i] for a nil
// order). It runs Chain.ApplyRates' and Chain.Validate's rate checks in
// their order and with their messages — a negative rate panics (the
// first in emission order); the first transient row whose exit sum is
// zero, then an unreachable absorbing set, are errors — while writing
// R = -Q_B: each off-diagonal as the negated edge rate 0 + r, each
// diagonal as the row's edge sum from 0 in sorted edge order. Those are
// the float operations of ApplyRates' accumulation and exit
// recomputation, so the row is bit-identical to refilling a chain and
// filling from it.
func (b *BatchSolver) fill(cell int, em, order []int, vals []float64) error {
	neg, pos, mask := signs(vals)
	if neg {
		panicNegative(order, vals)
	}
	v := b.vals[cell*b.nnz : (cell+1)*b.nnz]
	eslot, diagSlot := b.eslot, b.diagSlot
	k := 0
	for row, end := range b.erow[1:] {
		var exit float64
		for ; k < end; k++ {
			r := vals[em[k]]
			exit += r
			if s := eslot[k]; s >= 0 {
				v[s] = -(0 + r)
			}
		}
		if exit == 0 {
			return fmt.Errorf("markov: transient state %q has no outgoing transitions", b.names[b.trans[row]])
		}
		v[diagSlot[row]] = exit
	}
	// Edge rates (a nil order) are not the bound program's classes.
	if !b.reachable(em, vals, pos, order != nil, mask) {
		return fmt.Errorf("markov: no absorbing state is reachable from the initial state")
	}
	return nil
}

// signs reports whether any of vals is negative, whether all of them
// are positive (NaN is neither), and which of the first 64 are: mask
// bit i for vals[i] > 0.
func signs(vals []float64) (neg, pos bool, mask uint64) {
	pos = true
	for i, v := range vals {
		if v > 0 {
			if i < 64 {
				mask |= 1 << uint(i)
			}
			continue
		}
		pos = false
		neg = neg || v < 0
	}
	return neg, pos, mask
}

// panicNegative panics as Chain.ApplyRates does on the first negative
// rate in emission order — emission i's rate is vals[order[i]], or
// vals[i] for a nil order — if there is one.
func panicNegative(order []int, vals []float64) {
	if order == nil {
		for _, r := range vals {
			panicIfNegative(r)
		}
		return
	}
	for _, c := range order {
		panicIfNegative(vals[c])
	}
}

func panicIfNegative(r float64) {
	if r < 0 {
		panic(fmt.Sprintf("markov: negative rate %v in ApplyRates", r))
	}
}

// reachable reports whether absorption is reachable from the initial row
// over the positive-rate row edges, rate vals[em[k]]: when every value
// is positive (pos), that graph is the whole topology and the answer is
// the one Bind computed; otherwise, for class values of the bound
// program (classes), the verdict the memo holds for their positive
// classes mask, or a search, whose verdict the memo then keeps.
func (b *BatchSolver) reachable(em []int, vals []float64, pos, classes bool, mask uint64) bool {
	if pos {
		return b.reachAll
	}
	if !classes || b.nclass > 64 {
		return b.absorptionReachable(em, vals)
	}
	if ok, found := b.reach.lookup(mask); found {
		return ok
	}
	ok := b.absorptionReachable(em, vals)
	b.reach.store(mask, ok)
	return ok
}

// reachMemoSize bounds a reachMemo: a chunk sees one or two sets of
// positive classes, never a stream of them.
const reachMemoSize = 8

// reachMemo holds reachability verdicts by the set of positive classes
// of a class vector, a bit mask: the search visits exactly the row
// edges of positive class, so the set decides the verdict. The newest
// verdict replaces the oldest.
type reachMemo struct {
	mask [reachMemoSize]uint64
	ok   [reachMemoSize]bool
	n    int // verdicts held; the next store goes to n % reachMemoSize
}

func (m *reachMemo) lookup(mask uint64) (ok, found bool) {
	for i := range min(m.n, reachMemoSize) {
		if m.mask[i] == mask {
			return m.ok[i], true
		}
	}
	return false, false
}

func (m *reachMemo) store(mask uint64, ok bool) {
	i := m.n % reachMemoSize
	m.mask[i], m.ok[i] = mask, ok
	m.n++
}

// absorptionReachable is Chain.absorptionReachable over the bound
// topology and a value vector: whether a depth-first search from the
// initial row over row edges of positive rate vals[em[k]] — every row
// edge when vals is nil — reaches an absorbing state.
func (b *BatchSolver) absorptionReachable(em []int, vals []float64) bool {
	if b.initRow < 0 {
		return true
	}
	m := len(b.trans)
	vs := &b.vs
	if cap(vs.seen) < m {
		vs.seen = make([]bool, m)
	}
	seen := vs.seen[:m]
	clear(seen)
	stack := append(vs.stack[:0], b.initRow)
	seen[b.initRow] = true
	reached := false
	for len(stack) > 0 && !reached {
		row := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for k := b.erow[row]; k < b.erow[row+1]; k++ {
			if vals != nil && !(vals[em[k]] > 0) { // NaN is not a positive rate either
				continue
			}
			to := b.eto[k]
			if to < 0 {
				reached = true
				break
			}
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	vs.stack = stack[:0]
	return reached
}

// StartChunk opens one chunk of the solves that follow. Its
// "markov.batch" span opens at its first solve, so a chunk that reaches
// none (its first fill fails) records nothing. The returned stop
// function, given whether the chunk solved every cell, closes the span
// with the cells that reached a solve and accounts the chunk on ctx's
// registry: one chunk of cells in markov.batch.*, then account's
// counts, with the residual of the last cell only if every cell solved.
// One span and one set of metric updates cover the whole chunk; its
// time is the span's fold, trace.markov.batch.seconds.
func (b *BatchSolver) StartChunk(ctx context.Context) func(ok bool) {
	b.solved, b.sparseSolved, b.fellBack, b.last = 0, 0, 0, routeNone
	b.chunkCtx, b.chunkSpan, b.cells = ctx, nil, 0
	return func(ok bool) {
		b.chunkCtx = nil
		var m *solverMetrics
		if b.cells > 0 {
			if sp := b.chunkSpan; sp != nil {
				sp.SetAttr("cells", b.cells)
				sp.End()
			}
			if m = metricsFrom(ctx); m != nil {
				m.batchChunks.Inc()
				m.batchCells.Add(int64(b.cells))
				m.batchSize.Observe(float64(b.cells))
			}
		}
		if !ok {
			b.last = routeNone
		}
		b.account(m)
	}
}

// openSpan opens the open chunk's span at its first solve: every solve
// calls it, then counts its cells in b.cells.
func (b *BatchSolver) openSpan() {
	if ctx := b.chunkCtx; ctx != nil {
		b.chunkCtx = nil
		if _, b.chunkSpan = obs.StartSpan(ctx, "markov.batch"); b.chunkSpan != nil {
			b.chunkSpan.SetAttr("states", b.n)
			b.chunkSpan.SetAttr("sparse", b.sparseRoute)
		}
	}
}

// lastResidual is the ∞-norm residual ‖Rᵀτ − e‖ of the latest solved
// cell on the route that cell took. Only valid while that route is not
// routeNone: the cell's matrix and τ are still in place — for a lane,
// in the lane table, from which they are written out here.
func (b *BatchSolver) lastResidual() float64 {
	switch b.last {
	case routeDense:
		return absorptionResidual(b.r, b.tau, b.initRow)
	case routeLane:
		l := sparse.Lanes - 1
		b.view.Val = b.lp.prog.ValuesInto(b.vals[l*b.nnz:(l+1)*b.nnz], b.tab, l)
		b.lp.prog.TauInto(b.tau, b.y, l)
	}
	return sparseResidual(&b.view, b.tau, b.initRow, b.work)
}

// cellSolved records a solved cell for the chunk's accounting and
// returns its MTTA.
func (b *BatchSolver) cellSolved(r route) float64 {
	b.solved++
	b.last = r
	return linalg.Sum(b.tau)
}

// usable reports whether an MTTA is positive and finite, as a sum of
// sojourn times from a transient initial state is: no other is usable.
func usable(mtta float64) bool { return mtta > 0 && mtta < math.Inf(1) }

// solveOnes returns y = R⁻¹·1 (y_i = MTTA from transient row i) from
// the factors of the latest solved cell, on the route that cell took.
// Only valid after a one-cell solve that succeeded.
func (b *BatchSolver) solveOnes() []float64 {
	m := len(b.trans)
	y := make([]float64, m)
	if b.last == routeDense {
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
	b.openSpan()
	b.cells++
	b.last = routeNone
	if b.initRow < 0 {
		return 0, nil // initial state is absorbing
	}
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
					b.sparseSolved++
					return b.cellSolved(routeSparse), nil
				}
			}
		}
		// Zero pivot, implausible τ, or no symbolic analysis: redo with
		// dense partial pivoting, the authoritative fallback.
		b.fellBack++
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
	return b.cellSolved(routeDense), nil
}

// solveChain is the one-cell solve behind MTTA, Absorption,
// RateSensitivities and ExpectedVisits:
// validate c (Chain.Validate's checks and messages, in reused scratch),
// then bind, fill and solve it as cell 0 under a "markov.solve" span,
// accounted per call on ctx's registry (account). A mutable chain is bound
// through the solver's private frozen copy; the caller's chain stays
// mutable. A solve whose MTTA is not positive and finite (usable) lost
// all accuracy: it is an error, so no caller can pass the number on.
// An absorbing initial state has MTTA exactly 0, with no solve.
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
	if err := b.Bind(ctx, c); err != nil {
		return 0, err
	}
	b.solved, b.sparseSolved, b.fellBack, b.last = 0, 0, 0, routeNone
	defer b.account(metricsFrom(ctx))
	if b.initRow < 0 {
		return 0, nil // initial state is absorbing
	}
	if err := b.Fill(0, c); err != nil {
		return 0, err
	}
	v, err := b.solveCell(ctx, 0)
	if err == nil && !usable(v) {
		return 0, fmt.Errorf("markov: mean time to absorption %g is not positive and finite: the solve lost all accuracy", v)
	}
	return v, err
}

// laneProgram is a refill program's lane program on one cached
// topology: the class of every row edge and its rows' distinct class
// sequences, and the compiled sparse program over their sources. The
// row edges, their targets and classes, the class count and the
// initial row are its key: they decide everything else.
type laneProgram struct {
	erow, eto, em   []int
	nclass, initRow int

	// Sources: class c's negated rate -(0 + r) is source c; sequence s,
	// classes seqcls[seqptr[s]:seqptr[s+1]], is source nclass+s, the exit
	// sum of every row whose row edges carry it.
	seqptr, seqcls []int
	prog           *sparse.Program
}

// bindLanes binds the lane program of the bound topology and program —
// the cached one with the same key, or a fresh compilation, cached
// first — and sizes its tables. R's stored values name their sources:
// each off-diagonal its rate class, each diagonal its row's distinct
// class sequence, whose exit sum every such row shares, so four cells'
// lane table holds 36 class values and 25 exit sums at fault tolerance
// 7, against 763 stored values, and sparse.Symbolic.Compile
// value-numbers the elimination and the transposed solve over them.
func (b *BatchSolver) bindLanes() {
	te := b.topo
	i := slices.IndexFunc(te.progs, func(lp *laneProgram) bool {
		return lp.initRow == b.initRow && lp.nclass == b.nclass &&
			slices.Equal(lp.em, b.progEm) && slices.Equal(lp.erow, b.erow) && slices.Equal(lp.eto, b.eto)
	})
	if i < 0 {
		if len(te.progs) < topoCacheSize {
			te.progs = append(te.progs, nil)
		}
		i = len(te.progs) - 1
		te.progs[i] = b.compileLanes()
	}
	lp := te.progs[i]
	copy(te.progs[1:i+1], te.progs[:i])
	te.progs[0] = lp
	b.lp = lp
	b.tab = resize(b.tab, lp.prog.TableLen())
	b.y = resize(b.y, lp.prog.SolveLen())
}

// compileLanes derives the source map of R's stored values — each
// off-diagonal its edge's class, each diagonal its row's class sequence
// — and compiles the lane program over it.
func (b *BatchSolver) compileLanes() *laneProgram {
	lp := &laneProgram{
		erow: slices.Clone(b.erow), eto: slices.Clone(b.eto), em: slices.Clone(b.progEm),
		initRow: b.initRow, nclass: b.nclass, seqptr: []int{0},
	}
	src := make([]int, b.nnz)
	for row, end := range b.erow[1:] {
		cls := b.progEm[b.erow[row]:end]
		seq := 0
		for seq < len(lp.seqptr)-1 && !slices.Equal(lp.seqcls[lp.seqptr[seq]:lp.seqptr[seq+1]], cls) {
			seq++
		}
		if seq == len(lp.seqptr)-1 {
			lp.seqcls = append(lp.seqcls, cls...)
			lp.seqptr = append(lp.seqptr, len(lp.seqcls))
		}
		src[b.diagSlot[row]] = b.nclass + seq
		for k := b.erow[row]; k < end; k++ {
			if sl := b.eslot[k]; sl >= 0 {
				src[sl] = b.progEm[k]
			}
		}
	}
	lp.prog = b.num.Symbolic().Compile(src, b.nclass+len(lp.seqptr)-1, b.initRow)
	return lp
}

// Solve fills and solves one to sparse.Lanes cells from their class
// values vals (of the program BindProgram compiled), in the slab's
// first cells, and returns their MTTAs and how many cells it solved. It
// stops at the first cell whose fill or solve fails, returning its
// index and error (a negative rate panics, as in Chain.ApplyRates), and
// after the first cell whose MTTA is not usable, counted as solved.
// Four cells on a topology with a lane program solve in one pass of it;
// every other cell, and every lane the pass does not commit, takes the
// one-cell fill and SolveCell — so each cell's MTTA, error and
// accounting are bit for bit those of Fill (of the chain refilled with
// its class values) and SolveCell.
func (b *BatchSolver) Solve(vals [][]float64) (mtta [sparse.Lanes]float64, n int, err error) {
	if !b.programBound {
		panic("markov: Solve without a program compiled by BindProgram since the last Bind")
	}
	for l, r := range vals {
		if len(r) != b.nclass {
			panic(fmt.Sprintf("markov: Solve got %d class values in cell %d for a %d-class program", len(r), l, b.nclass))
		}
	}
	b.last = routeNone
	lanes := len(vals) == sparse.Lanes && b.lp != nil && b.fillLanes(vals)
	if lanes {
		n = b.runLanes(&mtta)
	}
	for ; n < len(vals); n++ {
		if !lanes {
			if err := b.fill(n, b.progEm, b.emClass, vals[n]); err != nil {
				return mtta, n, err
			}
		}
		v, err := b.solveCell(context.Background(), n)
		if err != nil {
			return mtta, n, err
		}
		mtta[n] = v
		if !usable(v) {
			return mtta, n + 1, nil
		}
	}
	return mtta, n, nil
}

// fillLanes writes the lane table of the four class vectors vals —
// every class's negated rate, every distinct class sequence's exit sum
// added as fill adds a row's — and reports whether every lane passes
// fill's checks: signs once per lane, zero exits once per sequence,
// reachability by the lane's positive classes.
func (b *BatchSolver) fillLanes(vals [][]float64) bool {
	lp, tab := b.lp, b.tab
	var (
		pos  [sparse.Lanes]bool
		mask [sparse.Lanes]uint64
	)
	for l, r := range vals {
		var neg bool
		if neg, pos[l], mask[l] = signs(r); neg {
			return false // fill panics, or ignores a class no emission reads
		}
	}
	r0, r1, r2, r3 := vals[0], vals[1][:b.nclass], vals[2][:b.nclass], vals[3][:b.nclass]
	for c, v := range r0 {
		tab[c] = sparse.Lane{-(0 + v), -(0 + r1[c]), -(0 + r2[c]), -(0 + r3[c])}
	}
	exits := tab[b.nclass : b.nclass+len(lp.seqptr)-1]
	for s := range exits {
		var x0, x1, x2, x3 float64
		for _, c := range lp.seqcls[lp.seqptr[s]:lp.seqptr[s+1]] {
			x0 += r0[c]
			x1 += r1[c]
			x2 += r2[c]
			x3 += r3[c]
		}
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			return false
		}
		exits[s] = sparse.Lane{x0, x1, x2, x3}
	}
	for l, r := range vals {
		if !b.reachable(lp.em, r, pos[l], true, mask[l]) {
			return false
		}
	}
	return true
}

// runLanes runs the lane program over the table fillLanes wrote and
// commits the leading lanes that pass solveCell's sparse-route checks —
// pivots nonzero and not NaN (a NaN pivot makes the scalar τ NaN), a
// plausible τ — with a usable MTTA: their MTTAs, bit for bit
// solveCell's, go to mtta, accounted as solveCell would. Every other
// lane's matrix goes to its slab cell, for solveCell. It returns the
// number of committed lanes.
func (b *BatchSolver) runLanes(mtta *[sparse.Lanes]float64) int {
	b.openSpan()
	prog, y := b.lp.prog, b.y
	ok := prog.Run(b.tab, y)
	// tauPlausible and linalg.Sum of every lane in one pass over the
	// entries that can be nonzero, in τ's order; the zeros change
	// neither.
	var w0, w1, w2, w3, c0, c1, c2, c3, s0, s1, s2, s3 float64
	for _, v := range y {
		w0, c0, s0 = tauStep(v[0], w0, c0, s0)
		w1, c1, s1 = tauStep(v[1], w1, c1, s1)
		w2, c2, s2 = tauStep(v[2], w2, c2, s2)
		w3, c3, s3 = tauStep(v[3], w3, c3, s3)
	}
	good := [sparse.Lanes]bool{plausible(w0, c0, s0), plausible(w1, c1, s1), plausible(w2, c2, s2), plausible(w3, c3, s3)}
	sum := [sparse.Lanes]float64{s0, s1, s2, s3}
	n := 0
	for ; n < sparse.Lanes && ok[n] && good[n] && usable(sum[n]); n++ {
		mtta[n] = sum[n]
	}
	b.cells += n
	b.solved += n
	b.sparseSolved += n
	if n == sparse.Lanes {
		b.last = routeLane
	}
	for l := n; l < sparse.Lanes; l++ {
		prog.ValuesInto(b.vals[l*b.nnz:(l+1)*b.nnz], b.tab, l)
	}
	return n
}

// frozenCopy lays the mutable chain c out in the solver's private
// frozen Chain: shared names and absorbing set, CSR adjacency and exit
// sums in reused buffers — the same layout and summation order Freeze
// produces, so the solve is bit-identical to solving c.Freeze().
func (b *BatchSolver) frozenCopy(c *Chain) *Chain {
	f := &b.own
	f.names, f.absorbing, f.initial, f.label = c.names, c.absorbing, c.initial, c.label
	f.ptr, f.edges = c.csrInto(f.ptr, f.edges)
	f.exit = resize(f.exit, len(c.names))
	f.recomputeExits()
	return f
}
