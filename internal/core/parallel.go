package core

// Bounded parallel execution for the analysis layer. Every analysis is a
// pure function of its inputs (the model packages hold no mutable
// package state, and solver instrumentation is atomic), so fanning a
// sweep's grid points or a configuration list across workers changes
// wall-clock time and nothing else: results are written into
// caller-indexed slots, the reduction is by index, and the first-error
// semantics of the serial loops are preserved by reporting the error of
// the lowest failing index.
//
// Cancellation: RunIndexed checks the context before every unit of
// work, so a cancelled sweep stops within one analysis of the
// cancellation. A cancelled run returns ctx.Err() unless a genuine
// analysis error was recorded first; either way the output slots are
// only partially written and must be discarded.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// poolSize maps a worker count onto a pool size: 0 selects
// runtime.NumCPU().
func poolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.NumCPU()
}

// ValidateWorkers rejects a negative worker count: every -workers flag
// and RunIndexed funnel through here, so "-workers -4" is a clear error
// everywhere instead of an accidental all-CPUs run. 0 remains the
// documented "use all CPUs" convention.
func ValidateWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("worker count %d is negative (use 0 for all CPUs, or a positive count)", n)
	}
	return nil
}

// RunIndexed evaluates fn(0), …, fn(n-1) on a pool of workers goroutines
// (0 = runtime.NumCPU(), never more than n) and returns the error of the
// lowest failing index (nil if all succeed). It is the repository's one
// worker pool: the analysis engine, the design-space enumeration and the
// simulators' chunks all ride it. fn must be safe to call concurrently
// and should write its result into a caller-owned slot for index i;
// slots for indices at or above a failing index may be left unwritten.
// Results are then identical at any worker count. With one worker (or
// one item) it degenerates to the plain serial loop on the calling
// goroutine, returning on the first error.
//
// The context is polled before each index is claimed (serial and
// parallel paths alike), so work stops within one fn call of
// cancellation. On cancellation the return value is ctx.Err() unless an
// fn error was recorded first — under cancellation the "lowest failing
// index" guarantee is waived, since later indices were legitimately
// never attempted. A negative worker count is rejected before any fn
// call.
func RunIndexed(ctx context.Context, n, workers int, fn func(i int) error) error {
	return RunWorkers(ctx, n, workers, func() func(int) error { return fn })
}

// RunWorkers is RunIndexed with per-worker state: each pool goroutine
// (the caller's own on the serial path) calls newWorker once, before
// its first index, and runs every index it claims through the function
// newWorker returned — so state built there, such as a simulator's RNG
// or event queue, is reused across that worker's indices and never
// shared. newWorker is not called when n is 0.
func RunWorkers(ctx context.Context, n, workers int, newWorker func() func(i int) error) error {
	if err := ValidateWorkers(workers); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	workers = min(poolSize(workers), n)
	if workers <= 1 {
		fn := newWorker()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := newWorker()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// After a failure, indices above the current first
				// failure are moot — but anything below it must still
				// run, or a later-indexed failure could mask the true
				// first error and make the result schedule-dependent.
				if failed.Load() {
					mu.Lock()
					skip := i > firstIdx
					mu.Unlock()
					if skip {
						continue
					}
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx = i
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
