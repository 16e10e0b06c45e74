package core

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
func Sweep(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers int) ([]SweepPoint, error) {
	return sweep(ctx, base, cfgs, method, xs, apply, workers, nil, chunkCells)
}

// SweepStream is Sweep delivering completed points incrementally: emit
// is called exactly once per grid point, in ascending x order, as soon
// as every configuration at that point has been analyzed — the earliest
// points stream out while later ones are still being solved. emit is
// never called concurrently with itself. If emit returns an error the
// sweep is cancelled and that error is returned; if any cell fails,
// points from the failing x onward are never emitted and the usual
// first-cell error is returned. The returned slice is the same complete
// grid Sweep returns (nil on error); results are bitwise identical to
// Sweep at any worker count.
func SweepStream(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers int, emit func(SweepPoint) error) ([]SweepPoint, error) {
	if emit == nil {
		return nil, fmt.Errorf("core: nil emit function")
	}
	return sweep(ctx, base, cfgs, method, xs, apply, workers, emit, chunkCells)
}

// sweepCellError attributes a grid-cell failure to its sweep position and
// configuration in one prefix: "core: sweep at x=…: FT …, …: <cause>".
// The cause keeps its own package prefix, so the message carries exactly
// one "core:" per wrapping layer instead of stuttering.
func sweepCellError(x float64, cfg Config, err error) error {
	return fmt.Errorf("core: sweep at x=%v: %v: %w", x, cfg, err)
}

// sweep runs the grid for Sweep and SweepStream (emit == nil means
// buffered) on the engine, in chunks of at most chunk cells.
func sweep(ctx context.Context, base params.Parameters, cfgs []Config, method Method, xs []float64, apply func(*params.Parameters, float64), workers int, emit func(SweepPoint) error, chunk int) ([]SweepPoint, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("core: empty sweep")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: sweep without configurations")
	}
	if apply == nil {
		return nil, fmt.Errorf("core: nil apply function")
	}
	ctx, sweepSp := obs.StartSpan(ctx, "core.sweep")
	if sweepSp != nil {
		sweepSp.SetAttr("cells", len(xs)*len(cfgs))
	}
	defer sweepSp.End()
	out := make([]SweepPoint, len(xs))
	for i, x := range xs {
		out[i] = SweepPoint{X: x, Results: make([]Result, len(cfgs))}
	}

	var tr *pointTracker
	if emit != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		tr = newPointTracker(out, len(cfgs), emit, cancel)
	}

	// Rows are sweep points and columns configurations, so the engine's
	// lowest failing cell is the serial loop's first.
	row, col, err := analyzeRanges(ctx, method, columns(cfgs, len(xs)), workers, chunk,
		func(row, _ int, p *params.Parameters) {
			*p = base
			apply(p, xs[row])
		},
		func(ch CellRange, res []Result) {
			for i := range res {
				out[ch.Lo+i].Results[ch.Col] = res[i]
			}
			tr.chunkDone(ch.Lo, ch.Hi)
		})
	if tr != nil {
		// An emit failure cancelled the run; it outranks the ctx.Err it
		// provoked.
		if terr := tr.emitErr(); terr != nil {
			return nil, terr
		}
	}
	if err != nil {
		if row >= 0 {
			err = sweepCellError(xs[row], cfgs[col], err)
		}
		return nil, err
	}
	return out, nil
}

// pointTracker watches per-point completion counts for a streaming sweep
// and emits the finished frontier in ascending x order. All methods are
// nil-safe no-ops so the buffered path pays one pointer test per chunk.
type pointTracker struct {
	mu        sync.Mutex
	remaining []int
	next      int
	points    []SweepPoint
	emit      func(SweepPoint) error
	err       error
	cancel    context.CancelFunc
}

func newPointTracker(points []SweepPoint, ncfg int, emit func(SweepPoint) error, cancel context.CancelFunc) *pointTracker {
	rem := make([]int, len(points))
	for i := range rem {
		rem[i] = ncfg
	}
	return &pointTracker{remaining: rem, points: points, emit: emit, cancel: cancel}
}

// chunkDone records one completed configuration across points [lo, hi).
func (t *pointTracker) chunkDone(lo, hi int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := lo; i < hi; i++ {
		t.remaining[i]--
	}
	t.advance()
}

// advance emits the completed frontier. Caller holds t.mu; emit runs
// under the lock, which is what serializes emissions and keeps them in
// ascending x order.
func (t *pointTracker) advance() {
	if t.err != nil {
		return
	}
	for t.next < len(t.points) && t.remaining[t.next] == 0 {
		if err := t.emit(t.points[t.next]); err != nil {
			t.err = err
			t.cancel()
			return
		}
		t.next++
	}
}

func (t *pointTracker) emitErr() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
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
