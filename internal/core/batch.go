package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/linalg/sparse"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// The analysis engine. Every analysis — one AnalyzeCtx call, a
// configuration list, a sweep grid, an elasticity stencil, the
// optimizer's confirmation of its survivors — is a grid of cells, each
// a parameter set under a configuration, and runs here in chunks: runs
// of cells that share ONE configuration. On the exact chain such cells
// share one frozen topology (the model builders' state/edge sets are
// functions of the fault tolerance alone, never of the parameters), so
// a chunk binds that topology and its refill program into a
// markov.BatchSolver once and then takes its cells in one pass: each
// cell's O(k) rate-class values are emitted through the compiled
// string-free model refillers into a lane buffer, validated and filled
// into the solver (no chain in between), solved and estimated before
// the next cell is emitted — zero per-cell allocation, with spans and
// metric observations amortized to one per chunk. On the sparse route
// the cells go in four-cell lane blocks (markov.BatchSolver.FillBlock
// and SolveBlock): one small lane table of class values and exit sums
// per block, and one pass of the topology's value-numbered lane program
// over it, bit for bit the one-cell path, which still takes a chunk's
// last one to three cells and any block a cell fails; a chunk's first
// block binds the topology, so a whole chunk can run as blocks. The
// solver's value slab holds one block. Closed-form and exact-stable
// cells have no chain to amortize: a chunk evaluates them one after
// another and binds no solver.
//
// Results do not depend on the chunk size or the worker count: every
// cell is a pure function of its inputs written to its caller's slot,
// and a failure is reported for the lowest failing cell, with the error
// the cell reports on its own.

// chunkCells is the chunk size: big enough to amortize binding and span
// bookkeeping to noise, small enough that streaming sweeps produce
// their first points promptly and cancellation lands within a fraction
// of a second.
const chunkCells = 256

// CellRange is rows [Lo, Hi) of column Col of a caller's cell grid,
// every cell analyzed under configuration Cfg. Cells are ordered by
// row, then column: that order decides which failure is reported.
type CellRange struct {
	Cfg         Config
	Col, Lo, Hi int
}

// columns returns one range of rows cells per configuration: column ci
// under cfgs[ci].
func columns(cfgs []Config, rows int) []CellRange {
	ranges := make([]CellRange, len(cfgs))
	for ci, cfg := range cfgs {
		ranges[ci] = CellRange{Cfg: cfg, Col: ci, Hi: rows}
	}
	return ranges
}

// AnalyzeRanges is the analysis engine's entry: it analyzes every cell
// of ranges with method, split into chunks of at most chunkCells rows
// fanned over a pool of workers goroutines (0 = runtime.NumCPU(); see
// RunIndexed). Per chunk, cell(row, col, p) sets each cell's parameters
// into p, and when every cell of the chunk succeeded done receives the
// chunk's range and its results in row order; done runs concurrently
// for distinct chunks and must write only that chunk's slots.
//
// On failure it returns the lowest failing cell's row and column and
// exactly the error AnalyzeCtx reports for that cell; chunks lying
// wholly past a recorded failure are skipped. On cancellation it
// returns (-1, -1, ctx.Err()) unless a cell failed first.
func AnalyzeRanges(ctx context.Context, method Method, ranges []CellRange, workers int, cell func(row, col int, p *params.Parameters), done func(chunk CellRange, res []Result)) (row, col int, err error) {
	return analyzeRanges(ctx, method, ranges, workers, chunkCells, cell, done)
}

// analyzeRanges is AnalyzeRanges with chunks of at most size rows.
func analyzeRanges(ctx context.Context, method Method, ranges []CellRange, workers, size int, cell func(row, col int, p *params.Parameters), done func(CellRange, []Result)) (int, int, error) {
	chunks := splitRanges(ranges, workers, size)
	var (
		mu                 sync.Mutex
		firstRow, firstCol int
		firstErr           error
	)
	// past reports whether cell (row, col) lies after the recorded first
	// failure. Caller holds mu.
	past := func(row, col int) bool {
		return firstErr != nil && (row > firstRow || row == firstRow && col > firstCol)
	}
	err := RunIndexed(ctx, len(chunks), workers, func(k int) error {
		ch := chunks[k]
		mu.Lock()
		skip := past(ch.Lo, ch.Col)
		mu.Unlock()
		if skip {
			// Nothing this chunk could do would change the outcome.
			return nil
		}
		bc := chunkPool.Get().(*batchChunk)
		defer chunkPool.Put(bc)
		ps, res := bc.slots(ch.Hi - ch.Lo)
		for i := range ps {
			cell(ch.Lo+i, ch.Col, &ps[i])
		}
		i, err := bc.analyze(ctx, ch.Cfg, method, ps, res)
		switch {
		case err == nil:
			done(ch, res)
		case i < 0:
			return err // cancellation: propagate as-is
		default:
			mu.Lock()
			if row := ch.Lo + i; !past(row, ch.Col) {
				firstRow, firstCol, firstErr = row, ch.Col, err
			}
			mu.Unlock()
		}
		return nil
	})
	if firstErr != nil {
		return firstRow, firstCol, firstErr
	}
	return -1, -1, err
}

// splitRanges splits ranges into chunks of at most size rows, in claim
// order: by first row, then by descending chain size (chainStates),
// ties in range order. Rows first lets a streaming sweep's emission
// frontier advance as fast as possible; heaviest first within a block
// of rows starts the longest chunks early, so the short ones fill in
// around them instead of a long one running alone at the end. When
// there are fewer ranges than workers, chunks shrink until every worker
// gets one.
func splitRanges(ranges []CellRange, workers, size int) []CellRange {
	if len(ranges) == 0 {
		return nil
	}
	want := (poolSize(workers) + len(ranges) - 1) / len(ranges)
	var chunks []CellRange
	for _, r := range ranges {
		n := max(1, min(size, (r.Hi-r.Lo+want-1)/want))
		for lo := r.Lo; lo < r.Hi; lo += n {
			chunks = append(chunks, CellRange{Cfg: r.Cfg, Col: r.Col, Lo: lo, Hi: min(lo+n, r.Hi)})
		}
	}
	slices.SortStableFunc(chunks, func(a, b CellRange) int {
		if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
			return c
		}
		return cmp.Compare(chainStates(b.Cfg), chainStates(a.Cfg))
	})
	return chunks
}

// chainStates is the size of cfg's exact chain, the measure of a
// chunk's cost: 2^(k+1) states without internal RAID, k+2 with it.
func chainStates(cfg Config) float64 {
	k := cfg.NodeFaultTolerance
	if cfg.Internal == InternalNone {
		return math.Ldexp(1, k+1)
	}
	return float64(k + 2)
}

// batchChunk is one chunk's reusable state: the cells' parameter and
// result slots, and the prep slots and per-lane class-value buffers of
// an exact-chain chunk (the one-cell path fills from lane 0's).
type batchChunk struct {
	preps []analysisPrep
	ps    []params.Parameters
	res   []Result
	vals  [sparse.Lanes][]float64
	// cellSolves counts the one-cell solves (SolveCell) of the latest
	// exact-chain chunk; lane blocks that commit every lane take none.
	cellSolves int
}

var chunkPool = sync.Pool{New: func() any { return new(batchChunk) }}

// slots returns n parameter and result slots, grown to the largest
// chunk the state has served.
func (bc *batchChunk) slots(n int) ([]params.Parameters, []Result) {
	if cap(bc.ps) < n {
		bc.ps, bc.res = make([]params.Parameters, n), make([]Result, n)
	}
	return bc.ps[:n], bc.res[:n]
}

// analyze is the one chunk body: it analyzes ps under cfg with method
// into out. On failure it returns the index of the lowest failing cell
// and exactly the error that cell reports on its own; on cancellation
// (-1, ctx.Err()).
//
// Exact-chain cells: bind the chunk's topology into a pooled solver,
// then one pass over the cells — prep each cell into the chunk's slot,
// fill the solver from the refiller's emitted class values (the fill
// validates them), solve and estimate — stopping at the first failing
// cell, so no cell past it is prepped. The chunk span opens at the
// first filled cell and counts the cells reached; a chunk with no
// filled cell opens no chunk span and records no chunk.
//
// On the sparse route the pass takes blocks of sparse.Lanes cells
// (FillBlock, SolveBlock); a block that any cell fails to fill, and the
// last cells that fill no block, take the one-cell path (FillRates,
// SolveCell) cell by cell, and a lane the block does not commit takes
// SolveCell, which reports that cell's error and accounting exactly.
func (bc *batchChunk) analyze(ctx context.Context, cfg Config, method Method, ps []params.Parameters, out []Result) (int, error) {
	if method != MethodExactChain {
		return evaluateCells(ctx, cfg, method, ps, out)
	}
	if cap(bc.preps) < len(ps) {
		bc.preps = make([]analysisPrep, len(ps))
	} else {
		bc.preps = bc.preps[:len(ps)]
	}
	// The solver comes from markov's free list, which hands out the most
	// recently released solver — the one whose symbolic-factorization
	// cache is warmest — on any goroutine, and survives collection.
	ch := chainChunk{bc: bc, cfg: cfg, isNIR: cfg.Internal == InternalNone, bs: markov.AcquireBatchSolver()}
	defer ch.release()
	defer ch.tl.Flush(ctx)
	var (
		endChunk func(int)
		reached  int
	)
	defer func() {
		if endChunk != nil {
			endChunk(reached)
		}
	}()
	bs := ch.bs
	bc.cellSolves = 0
	done := ctx.Done()
	var mtta [sparse.Lanes]float64
	for i := 0; i < len(ps); {
		if cancelled(done) {
			return -1, ctx.Err()
		}
		cells, solved := 1, 0
		if ch.fillBlock(ctx, ps, i) {
			cells = sparse.Lanes
		} else if err := ch.fillCell(ctx, ps, i); err != nil {
			return i, err
		}
		if endChunk == nil {
			endChunk = bs.StartChunk(ctx)
		}
		if cells > 1 {
			solved = bs.SolveBlock(0, &mtta)
		}
		for l := 0; l < cells; l++ {
			j := i + l
			reached = j + 1
			v := mtta[l]
			if l >= solved {
				slot := l
				if cells == 1 {
					slot = i % 2
				}
				bc.cellSolves++
				var err error
				if v, err = bs.SolveCell(slot); err != nil {
					ch.tl = ch.lanes[l]
					return j, chainSolveError(ch.isNIR, err)
				}
			}
			est, err := estimate(&ps[j], cfg, v)
			if err != nil {
				ch.tl = ch.lanes[l]
				return j, err
			}
			out[j] = bc.preps[j].result(&ps[j], cfg, MethodExactChain, est)
		}
		i += cells
	}
	return -1, nil
}

// chainChunk is the fill state of one exact-chain chunk: its solver,
// its refiller (acquired by the first cell's emission), whether that
// emission has bound the topology, the chunk's rate tally, and the
// tally after each cell of the latest fill, to which a failure at that
// cell rewinds it, uncounting the cells of its block past it.
type chainChunk struct {
	bc    *batchChunk
	cfg   Config
	isNIR bool
	bs    *markov.BatchSolver
	nir   *model.NIRRefiller
	ir    *model.IRRefiller
	bound bool
	tl    rebuild.Tally
	lanes [sparse.Lanes]rebuild.Tally
}

// release hands the solver and the refiller back for recycling.
func (ch *chainChunk) release() {
	if ch.nir != nil {
		ch.nir.Release()
	}
	if ch.ir != nil {
		ch.ir.Release()
	}
	markov.ReleaseBatchSolver(ch.bs)
}

// fillBlock preps and emits the sparse.Lanes cells of ps from i on and
// fills them in one FillBlock pass, and reports true, when the route
// solves in lane blocks, the chunk has a whole block left and every cell
// of the block preps and fills cleanly. Each lane's refiller emission
// writes its class values into that lane's buffer; the first emission
// of a chunk's first block binds the topology, so a whole chunk can run
// as blocks. Otherwise it leaves the rate tally as it found it, so the
// one-cell path that follows preps, counts and reports as if no block
// was tried.
func (ch *chainChunk) fillBlock(ctx context.Context, ps []params.Parameters, i int) bool {
	if ch.bound && !ch.bs.LaneBlocks() || len(ps)-i < sparse.Lanes {
		return false
	}
	tl := ch.tl
	for l := range ch.bc.vals {
		// The chunk's first block binds with its first emission; on the
		// dense route it then leaves the cell to the one-cell path.
		if err := ch.emit(ctx, ps, i+l, l); err != nil || !ch.bs.LaneBlocks() {
			ch.tl = tl
			return false
		}
		ch.lanes[l] = ch.tl
	}
	if !ch.bs.FillBlock(&ch.bc.vals) {
		ch.tl = tl
		return false
	}
	return true
}

// fillCell preps, emits and fills cell i of ps into the solver's cell
// i%2, returning the cell's error, if any: a failing fill never
// overwrites the row of the cell solved before it, whose residual the
// chunk reports.
func (ch *chainChunk) fillCell(ctx context.Context, ps []params.Parameters, i int) error {
	if err := ch.emit(ctx, ps, i, 0); err != nil {
		return err
	}
	ch.lanes[0] = ch.tl
	if err := ch.bs.FillRates(i%2, ch.bc.vals[0]); err != nil {
		return chainSolveError(ch.isNIR, err)
	}
	return nil
}

// emit preps cell i of ps into its prep slot and writes the refiller's
// class values for it into lane's buffer. The chunk's first emission
// acquires the refiller and binds its topology, program and class map
// into the solver.
func (ch *chainChunk) emit(ctx context.Context, ps []params.Parameters, i, lane int) error {
	pr := &ch.bc.preps[i]
	if err := analyzePrep(pr, &ps[i], ch.cfg, &ch.tl); err != nil {
		return err
	}
	var (
		c              *markov.Chain
		program, class []int
	)
	vals := &ch.bc.vals[lane]
	if ch.isNIR {
		if ch.nir == nil {
			ch.nir = model.AcquireNIRRefiller(pr.nir, pr.k)
		}
		*vals = ch.nir.Emit(*vals, pr.nir)
		c, program, class = ch.nir.Chain(), ch.nir.Program(), ch.nir.Classes()
	} else {
		if ch.ir == nil {
			ch.ir = model.AcquireIRRefiller(pr.ir, pr.k)
		}
		*vals = ch.ir.Emit(*vals, pr.ir)
		c, program, class = ch.ir.Chain(), ch.ir.Program(), ch.ir.Classes()
	}
	if !ch.bound {
		if err := ch.bs.Bind(ctx, c); err != nil {
			return chainSolveError(ch.isNIR, err)
		}
		ch.bs.Cells(sparse.Lanes)
		if err := ch.bs.BindProgram(program, class); err != nil {
			return chainSolveError(ch.isNIR, err)
		}
		ch.bound = true
	}
	return nil
}

// evaluateCells is the chunk body of the methods without a chain: per
// cell, prep, then the closed form or the recursion, then the usability
// guard, stopping at the first failing cell. It binds no solver, so it
// needs no chunk state, and it allocates nothing unless a cell fails.
func evaluateCells(ctx context.Context, cfg Config, method Method, ps []params.Parameters, out []Result) (int, error) {
	var (
		pr analysisPrep
		tl rebuild.Tally
	)
	defer tl.Flush(ctx)
	done := ctx.Done()
	for i := range ps {
		if cancelled(done) {
			return -1, ctx.Err()
		}
		est, err := pr.evaluate(&ps[i], cfg, method, &tl)
		if err != nil {
			return i, err
		}
		out[i] = pr.result(&ps[i], cfg, method, est)
	}
	return -1, nil
}

// cancelled polls a context's Done channel without blocking. The chunk
// bodies poll once or twice per cell; ctx.Err on a cancelable context
// takes its mutex, which every worker of one request shares, while a
// receive on the already-fetched channel takes no lock.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
