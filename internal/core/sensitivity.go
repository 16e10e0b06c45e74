package core

// Sweeps: one parameter varied across a grid of points, every
// configuration analyzed at each, on the analysis engine. One driver
// runs every sweep. It hands each solved chunk's results to a cells
// callback on the worker that solved them, and, for a stream, each
// advance of the completed prefix of points to a rows callback. Sweep
// keeps the grid of Results; SweepStream keeps none, so a caller that
// encodes results does so on the workers and only splices at the
// frontier.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/params"
)

// SweepPoint is the analysis of every requested configuration at one value
// of the swept parameter.
type SweepPoint struct {
	// X is the swept parameter's value at this point (in its natural
	// unit: hours, bytes, Gb/s, or a count).
	X float64
	// Results holds one result per configuration, in the order the sweep
	// was given.
	Results []Result
}

// Sweep varies one parameter across the given values, holding everything
// else at base, and analyzes each configuration at each point — the shape
// of the paper's Section 7 sensitivity analyses. apply installs a value
// into a copy of the base parameters.
//
// The (point, configuration) grid runs on the analysis engine
// (AnalyzeRanges): each configuration's column of points is split into
// chunks fanned over a pool of workers goroutines (0 = runtime.NumCPU();
// see RunIndexed). Each analysis is a pure function written into its
// own output slot, so output order and values are identical to a serial
// loop at any worker count; on failure the error of the earliest grid
// cell (sweep order, then configuration order) is returned, exactly as
// the serial loop would have reported it. The context is polled before
// each grid cell, so a cancelled sweep stops within one analysis and
// returns ctx.Err() instead of a partial grid.
//
// When the context carries an active span (obs.StartSpan), one
// "core.sweep" span brackets the whole grid, and an exact-chain grid
// emits one "markov.batch" child per solved chunk; chunks run on worker
// goroutines, so their spans interleave but parent correctly. Closed-form
// and exact-stable cells open no spans of their own.
//
// Sweep is the grid-building caller of the driver SweepStream runs on:
// it is the one caller that keeps every Result.
func Sweep(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers int) ([]SweepPoint, error) {
	return sweepGrid(ctx, base, cfgs, method, xs, apply, workers, chunkCells)
}

// sweepGrid is Sweep in chunks of at most chunk cells.
func sweepGrid(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers, chunk int) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(xs))
	for i, x := range xs {
		out[i] = SweepPoint{X: x, Results: make([]Result, len(cfgs))}
	}
	err := sweep(ctx, base, cfgs, method, xs, apply, workers, func(col, lo int, res []Result) {
		for i := range res {
			out[lo+i].Results[col] = res[i]
		}
	}, nil, chunk)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SweepStream is Sweep handing each solved chunk to the caller instead
// of keeping a grid. cells(col, lo, res) receives the results of
// configuration col at points [lo, lo+len(res)) on the worker that
// solved them, as soon as the chunk has solved; it runs concurrently
// for distinct chunks, must write only that chunk's slots and must not
// keep res. rows(lo, hi) runs each time the completion frontier
// advances — every configuration at points [lo, hi) has been handed to
// cells — in ascending x, never concurrently with itself, and covers
// every point exactly once on success; the earliest points stream out
// while later ones are still being solved. If rows returns an error the
// sweep is cancelled and that error is returned; if any cell fails,
// rows never reaches the failing point and the usual first-cell error
// is returned. Results are bitwise identical to Sweep at any worker
// count, and no per-point Result outlives its chunk.
func SweepStream(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers int, cells func(col, lo int, res []Result), rows func(lo, hi int) error) error {
	if cells == nil || rows == nil {
		return fmt.Errorf("core: nil emit function (SweepStream needs cells and rows)")
	}
	return sweep(ctx, base, cfgs, method, xs, apply, workers, cells, rows, chunkCells)
}

// sweepCellError attributes a grid-cell failure to its sweep position and
// configuration in one prefix: "core: sweep at x=…: FT …, …: <cause>".
// The cause keeps its own package prefix, so the message carries exactly
// one "core:" per wrapping layer instead of stuttering.
func sweepCellError(x float64, cfg Config, err error) error {
	return fmt.Errorf("core: sweep at x=%v: %v: %w", x, cfg, err)
}

// sweep is the driver of Sweep and SweepStream (rows == nil means no
// frontier): it runs the grid on the engine, in chunks of at most chunk
// cells, handing each solved chunk to cells.
func sweep(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers int, cells func(col, lo int, res []Result), rows func(lo, hi int) error, chunk int) error {
	if len(xs) == 0 {
		return fmt.Errorf("core: empty sweep")
	}
	if len(cfgs) == 0 {
		return fmt.Errorf("core: sweep without configurations")
	}
	if apply == nil {
		return fmt.Errorf("core: nil apply function")
	}
	ctx, sweepSp := obs.StartSpan(ctx, "core.sweep")
	if sweepSp != nil {
		sweepSp.SetAttr("cells", len(xs)*len(cfgs))
	}
	defer sweepSp.End()

	var fr *frontier
	if rows != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		fr = newFrontier(len(xs), len(cfgs), rows, cancel)
	}

	// Rows are sweep points and columns configurations, so the engine's
	// lowest failing cell is the serial loop's first.
	row, col, err := analyzeRanges(ctx, method, columns(cfgs, len(xs)), workers, chunk,
		func(row, _ int, p *params.Parameters) {
			*p = base
			apply(p, xs[row])
		},
		func(ch CellRange, res []Result) {
			cells(ch.Col, ch.Lo, res)
			fr.chunkDone(ch.Lo, ch.Hi)
		})
	// A rows failure cancelled the run; it outranks the ctx.Err it
	// provoked.
	if ferr := fr.rowsErr(); ferr != nil {
		return ferr
	}
	if err != nil && row >= 0 {
		err = sweepCellError(xs[row], cfgs[col], err)
	}
	return err
}

// frontier counts, per point of a streaming sweep, the configurations
// not yet handed to cells, and hands each advance of the completed
// prefix to rows. One worker at a time holds the emitter role and calls
// rows outside the lock, so the other workers only count and move on;
// the emitter rescans after every call, so no advance is lost. All
// methods are nil-safe no-ops, so Sweep pays one pointer test per chunk.
type frontier struct {
	mu        sync.Mutex
	remaining []int32
	next      int  // first point not yet handed to rows
	emitting  bool // a worker holds the emitter role
	rows      func(lo, hi int) error
	err       error
	cancel    context.CancelFunc
}

func newFrontier(points, ncfg int, rows func(lo, hi int) error, cancel context.CancelFunc) *frontier {
	rem := make([]int32, points)
	for i := range rem {
		rem[i] = int32(ncfg)
	}
	return &frontier{remaining: rem, rows: rows, cancel: cancel}
}

// chunkDone records one completed configuration across points [lo, hi)
// and, unless another worker holds the emitter role, emits the frontier.
func (f *frontier) chunkDone(lo, hi int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := lo; i < hi; i++ {
		f.remaining[i]--
	}
	if f.emitting {
		return
	}
	f.emitting = true
	for f.err == nil {
		lo, hi := f.next, f.next
		for hi < len(f.remaining) && f.remaining[hi] == 0 {
			hi++
		}
		if hi == lo {
			break
		}
		f.next = hi
		f.mu.Unlock()
		err := f.rows(lo, hi)
		f.mu.Lock()
		if err != nil {
			f.err = err
			f.cancel()
		}
	}
	f.emitting = false
}

func (f *frontier) rowsErr() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Series extracts one configuration's events-per-PB-year across the sweep,
// index i referring to the configuration order passed to Sweep. It
// panics if any point has fewer than i+1 results — i must index the
// configuration slice the sweep was run with. An empty or nil points
// slice yields an empty series.
func Series(points []SweepPoint, i int) []float64 {
	out := make([]float64, len(points))
	for j, pt := range points {
		out[j] = pt.Results[i].EventsPerPBYear
	}
	return out
}
