package linalg

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Package-level instrumentation for the dense kernels, nil (one atomic
// load per factorization) by default.
type linalgMetrics struct {
	factorizations   *obs.Counter
	factorizeSeconds *obs.Histogram
	dimension        *obs.Histogram
	minPivot         *obs.Gauge
}

var instr atomic.Pointer[linalgMetrics]

// Instrument routes factorization telemetry into reg: counts, wall time,
// matrix dimensions, and the smallest pivot magnitude of the most recent
// factorization (a cheap conditioning signal). Pass nil to disable.
//
// Factorize accounts each call: it counts in linalg.factorizations,
// observes its wall time into linalg.factorize_seconds and its
// dimension into linalg.dimension, and sets linalg.last_min_pivot.
// FactorizeInto accounts nothing itself: its caller folds a batch of
// factorizations into one FactorizationsDone call — markov.BatchSolver
// once per chunk of dense cells (and once per one-cell solve). A batch
// adds its count to linalg.factorizations and that many observations of
// its dimension to linalg.dimension, and sets the pivot gauge from its
// latest factorization; it is not timed per factorization, so
// linalg.factorize_seconds holds Factorize calls only (batched time is
// part of markov.batch.chunk_seconds or markov.absorption.seconds).
func Instrument(reg *obs.Registry) {
	if reg == nil {
		instr.Store(nil)
		return
	}
	instr.Store(&linalgMetrics{
		factorizations:   reg.Counter("linalg.factorizations"),
		factorizeSeconds: reg.Histogram("linalg.factorize_seconds", obs.ExpBuckets(1e-7, 4, 16)),
		dimension:        reg.Histogram("linalg.dimension", obs.ExpBuckets(2, 2, 12)),
		minPivot:         reg.Gauge("linalg.last_min_pivot"),
	})
}

// factorizeDone records one completed Factorize call when instrumented.
func factorizeDone(start time.Time, f *LU) {
	m := instr.Load()
	if m == nil {
		return
	}
	if !start.IsZero() {
		m.factorizeSeconds.Observe(time.Since(start).Seconds())
	}
	m.record(1, f)
}

// FactorizationsDone accounts n factorizations made by FactorizeInto,
// all of last's dimension, last being the latest of them (see
// Instrument). n <= 0 records nothing.
func FactorizationsDone(n int, last *LU) {
	m := instr.Load()
	if m == nil || n <= 0 {
		return
	}
	m.record(n, last)
}

// record folds n factorizations of last's dimension into the registry.
func (m *linalgMetrics) record(n int, last *LU) {
	m.factorizations.Add(int64(n))
	dim := last.N()
	m.dimension.ObserveN(float64(dim), int64(n))
	min := abs(last.lu.data[0])
	for i := 0; i < dim; i++ {
		if p := abs(last.lu.data[i*dim+i]); p < min {
			min = p
		}
	}
	m.minPivot.Set(min)
}

// factorizeStart returns the wall-clock start only when instrumented.
func factorizeStart() time.Time {
	if instr.Load() == nil {
		return time.Time{}
	}
	return time.Now()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
