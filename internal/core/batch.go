package core

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// Batched exact-chain sweeps. Profiling a MethodExactChain grid shows
// the per-cell cost dominated by chain construction — label strings,
// name-map lookups, allocation — not by the linear solve. The batch
// engine removes all of it from the cell loop: a sweep chunk is a
// run of consecutive x values for ONE configuration, whose chains all
// share one frozen topology (the model builders' state/edge sets are
// functions of the fault tolerance alone, never of the swept
// parameters). Each chunk binds that topology into a structure-of-arrays
// markov.BatchSolver once, emits rates per cell through the compiled
// string-free model refillers straight into the solver's value slab
// (one validating fill pass, no chain in between), and runs
// Refactor+Solve per cell — zero per-cell allocation, with spans and
// metric observations amortized to one per chunk.
//
// Results are bitwise identical to AnalyzeCtx on each cell at any
// worker count and any chunk size: refills, matrix assembly, routing and
// the solves themselves reproduce the per-call float operations exactly
// (enforced by tests at every layer). Methods other than
// MethodExactChain never batch — their per-cell cost has no chain to
// amortize.

// chunkCells is the sweep chunk size: big enough to amortize binding
// and span bookkeeping to noise, small enough that streaming sweeps
// produce their first points promptly and cancellation lands within a
// fraction of a second.
const chunkCells = 256

// batchChunk is one worker's reusable chunk state: a bound batch solver
// (whose symbolic-factorization cache survives across chunks), the prep
// slots for up to one chunk of cells, and a sweep chunk's parameter and
// result slots.
type batchChunk struct {
	bs    *markov.BatchSolver
	preps []analysisPrep
	ps    []params.Parameters
	res   []Result
}

var chunkPool = sync.Pool{
	New: func() any { return &batchChunk{bs: markov.AcquireBatchSolver()} },
}

// AnalyzeChainBatchCtx analyzes every parameter set in ps under one
// fixed configuration with MethodExactChain, batching all cells through
// a single bound markov.BatchSolver: the cells share one frozen chain
// topology (guaranteed structurally — the model builders' state/edge
// sets are functions of the fault tolerance alone, never of the
// parameters), one CSR pattern and one symbolic factorization. This is
// the sweep engine's chunk body exposed for callers whose cells vary
// many parameters at once (the design-space optimizer in internal/plan)
// instead of one swept knob.
//
// out[i] receives ps[i]'s Result; every result is bit-identical to
// AnalyzeCtx(ctx, ps[i], cfg, MethodExactChain). On failure the return
// is the index of the lowest failing cell and exactly the error
// AnalyzeCtx would have reported for it; on cancellation it is
// (-1, ctx.Err()). len(out) must be at least len(ps).
func AnalyzeChainBatchCtx(ctx context.Context, cfg Config, ps []params.Parameters, out []Result) (int, error) {
	if len(ps) == 0 {
		return -1, nil
	}
	bc := chunkPool.Get().(*batchChunk)
	defer chunkPool.Put(bc)
	return bc.analyze(ctx, cfg, ps, out)
}

// analyze is the one chunk body: per cell, prep into the chunk's slot
// and the refiller's emitted rates straight into the solver's slab
// (FillRates validates them), stopping at the first failing fill; then
// one Refactor+Solve+estimate pass over the filled cells. A solve failure at cell i < the failing fill outranks the fill failure
// — it is the earlier cell, which is what a serial per-cell loop would
// have reported. A chunk with no filled cell opens no chunk span and
// records no chunk.
func (bc *batchChunk) analyze(ctx context.Context, cfg Config, ps []params.Parameters, out []Result) (int, error) {
	if cap(bc.preps) < len(ps) {
		bc.preps = make([]analysisPrep, len(ps))
	} else {
		bc.preps = bc.preps[:len(ps)]
	}
	bs := bc.bs
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
	filled := 0
	fillFail := -1
	var fillErr error
	for i := range ps {
		if err := ctx.Err(); err != nil {
			return -1, err
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
		if err := ctx.Err(); err != nil {
			return -1, err
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

// sweepBatch runs a MethodExactChain grid through batch solves of at
// most chunk cells. Chunks are (configuration, x-range) slices of the
// grid, fanned across the bounded worker pool; chunk claiming is
// ordered by x block first so a streaming sweep's emission frontier
// advances as fast as possible, and within an x block by descending
// chain size (chunkSpecs), so the longest chunks start first and the
// short ones fill in around them instead of a long one running alone at
// the end of the block. The reported error is that of the lowest
// failing grid cell (x order, then configuration order) — the one a
// serial loop over AnalyzeCtx would report — with the same message.
func sweepBatch(ctx context.Context, base params.Parameters, cfgs []Config, xs []float64, apply func(*params.Parameters, float64), workers int, out []SweepPoint, tr *pointTracker, chunk int) error {
	nx, ncfg := len(xs), len(cfgs)
	// When the worker pool would otherwise idle (few, long chunks),
	// shrink chunks so every worker gets one; chunk size never affects
	// results, only scheduling.
	if want := (poolSize(workers) + ncfg - 1) / ncfg; want > 1 {
		if spread := (nx + want - 1) / want; spread < chunk {
			chunk = spread
		}
	}
	if chunk < 1 {
		chunk = 1
	}

	specs := chunkSpecs(cfgs, nx, chunk)

	// First-error reduction across chunks, by global grid-cell index
	// (xi*ncfg + ci), mirroring RunIndexed's lowest-index guarantee.
	var (
		mu        sync.Mutex
		firstCell = nx * ncfg
		firstErr  error
	)
	record := func(cell int, err error) {
		mu.Lock()
		if cell < firstCell {
			firstCell = cell
			firstErr = err
		}
		mu.Unlock()
	}

	rerr := RunIndexed(ctx, len(specs), workers, func(si int) error {
		sp := specs[si]
		mu.Lock()
		skip := sp.lo*ncfg+sp.ci > firstCell
		mu.Unlock()
		if skip {
			// Every cell in this chunk is past the recorded first
			// failure; nothing it could do would change the outcome.
			return nil
		}
		cell, err := runBatchChunk(ctx, base, cfgs[sp.ci], xs[sp.lo:sp.hi], apply, out[sp.lo:sp.hi], sp.ci)
		if err != nil {
			if cell < 0 {
				return err // context cancellation: propagate as-is
			}
			record((sp.lo+cell)*ncfg+sp.ci, err)
			return nil
		}
		tr.chunkDone(sp.lo, sp.hi)
		return nil
	})
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return rerr
}

// chunkSpec is one sweep chunk: configuration ci over points [lo, hi).
type chunkSpec struct{ ci, lo, hi int }

// chunkSpecs splits an nx-point sweep over cfgs into chunks of at most
// chunk points, in claim order: x block by x block, and within a block
// by descending chainStates, ties in configuration order.
func chunkSpecs(cfgs []Config, nx, chunk int) []chunkSpec {
	claim := make([]int, len(cfgs))
	for ci := range claim {
		claim[ci] = ci
	}
	sort.SliceStable(claim, func(a, b int) bool {
		return chainStates(cfgs[claim[a]]) > chainStates(cfgs[claim[b]])
	})
	specs := make([]chunkSpec, 0, len(cfgs)*((nx+chunk-1)/chunk))
	for lo := 0; lo < nx; lo += chunk {
		hi := min(lo+chunk, nx)
		for _, ci := range claim {
			specs = append(specs, chunkSpec{ci: ci, lo: lo, hi: hi})
		}
	}
	return specs
}

// chainStates is the size of cfg's exact chain, the measure of a sweep
// chunk's cost: 2^(k+1) states without internal RAID, k+2 with it.
func chainStates(cfg Config) float64 {
	k := cfg.NodeFaultTolerance
	if cfg.Internal == InternalNone {
		return math.Ldexp(1, k+1)
	}
	return float64(k + 2)
}

// runBatchChunk analyzes one configuration across a run of consecutive
// sweep points through the shared chunk body, wrapping a failing cell's
// error with its sweep position. On a cell failure it returns that
// cell's chunk-local index; on cancellation (-1, ctx.Err()). Results
// land in pts[i].Results[ci] only when the whole chunk succeeds.
func runBatchChunk(ctx context.Context, base params.Parameters, cfg Config, xs []float64, apply func(*params.Parameters, float64), pts []SweepPoint, ci int) (int, error) {
	bc := chunkPool.Get().(*batchChunk)
	defer chunkPool.Put(bc)
	bc.ps = bc.ps[:0]
	for _, x := range xs {
		bc.ps = append(bc.ps, base)
		apply(&bc.ps[len(bc.ps)-1], x)
	}
	if cap(bc.res) < len(xs) {
		bc.res = make([]Result, len(xs))
	}
	res := bc.res[:len(xs)]
	if cell, err := bc.analyze(ctx, cfg, bc.ps, res); err != nil {
		if cell >= 0 {
			err = sweepCellError(xs[cell], cfg, err)
		}
		return cell, err
	}
	for i := range res {
		pts[i].Results[ci] = res[i]
	}
	return -1, nil
}
