package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

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
// a chunk binds that topology into a structure-of-arrays
// markov.BatchSolver once, emits rates per cell through the compiled
// string-free model refillers straight into the solver's value slab
// (one validating fill pass, no chain in between), and runs
// Refactor+Solve per cell — zero per-cell allocation, with spans and
// metric observations amortized to one per chunk. Closed-form and
// exact-stable cells have no chain to amortize: a chunk evaluates them
// one after another and binds no solver.
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
// result slots and the prep slots of an exact-chain chunk.
type batchChunk struct {
	preps []analysisPrep
	ps    []params.Parameters
	res   []Result
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
// then per cell, prep into the chunk's slot and the refiller's emitted
// rates straight into the solver's slab (FillRates
// validates them), stopping at the first failing fill; then one
// Refactor+Solve+estimate pass over the filled cells. A solve failure
// at cell i < the failing fill outranks the fill failure — it is the
// earlier cell. A chunk with no filled cell opens no chunk span and
// records no chunk.
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
	bs := markov.AcquireBatchSolver()
	defer markov.ReleaseBatchSolver(bs)
	isNIR := cfg.Internal == InternalNone

	var (
		nir *model.NIRRefiller
		ir  *model.IRRefiller
	)
	defer func() {
		if nir != nil {
			nir.Release()
		}
		if ir != nil {
			ir.Release()
		}
	}()

	var tl rebuild.Tally
	defer tl.Flush(ctx)
	done := ctx.Done()
	filled := 0
	fillFail := -1
	var fillErr error
	for i := range ps {
		if cancelled(done) {
			return -1, ctx.Err()
		}
		pr := &bc.preps[i]
		if err := analyzePrep(pr, &ps[i], cfg, &tl); err != nil {
			fillFail, fillErr = i, err
			break
		}
		var (
			rates   []float64
			ch      *markov.Chain
			program []int
		)
		if isNIR {
			if nir == nil {
				nir = model.AcquireNIRRefiller(pr.nir, pr.k)
				ch, program = nir.Chain(), nir.Program()
			}
			rates = nir.Emit(pr.nir)
		} else {
			if ir == nil {
				ir = model.AcquireIRRefiller(pr.ir, pr.k)
				ch, program = ir.Chain(), ir.Program()
			}
			rates = ir.Emit(pr.ir)
		}
		if i == 0 {
			if err := bs.Bind(ctx, ch); err != nil {
				return 0, chainSolveError(isNIR, err)
			}
			bs.Cells(len(ps))
			if err := bs.BindProgram(program); err != nil {
				return 0, chainSolveError(isNIR, err)
			}
		}
		if err := bs.FillRates(i, rates); err != nil {
			fillFail, fillErr = i, chainSolveError(isNIR, err)
			break
		}
		filled++
	}

	if filled > 0 {
		endChunk := bs.StartChunk(ctx, filled)
		defer endChunk()
	}
	for i := 0; i < filled; i++ {
		if cancelled(done) {
			return -1, ctx.Err()
		}
		mtta, err := bs.SolveCell(i)
		if err != nil {
			return i, chainSolveError(isNIR, err)
		}
		est, err := estimate(&ps[i], cfg, mtta)
		if err != nil {
			return i, err
		}
		out[i] = bc.preps[i].result(&ps[i], cfg, MethodExactChain, est)
	}
	if fillErr != nil {
		return fillFail, fillErr
	}
	return -1, nil
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
