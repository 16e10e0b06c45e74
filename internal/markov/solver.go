package markov

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/linalg/sparse"
	"repro/internal/obs"
)

// topoCacheSize bounds a solver's symbolic cache. Sweeps interleave
// at most a handful of configurations per worker (one topology per fault
// tolerance and redundancy family), so a short MRU list captures
// effectively all reuse without growing with grid size.
const topoCacheSize = 8

// defaultSparseMinStates is the dense→sparse crossover measured on the
// reliability chains (see BENCH_sparse.json): below ~48 transient states
// the dense factorization's tight loops win on constant factors; above
// it the O(n³) term dominates and sparse wins by growing margins. The
// paper's own chains (k ≤ 3, n ≤ 15) always stay dense, keeping every
// printed figure byte-identical.
const defaultSparseMinStates = 48

// maxSparseDensity guards the sparse path against pathologically dense
// chains, where fill-in would exceed the dense triangle anyway.
const maxSparseDensity = 0.25

// sparseMinOverride holds a test/benchmark override of the crossover
// (0 = default).
var sparseMinOverride atomic.Int64

// SetSparseMinStates overrides the minimum transient-state count at
// which solves switch to the sparse LU path, returning the
// previous effective value. n <= 0 restores the benchmarked default;
// a very large n forces the dense path everywhere (benchmark baselines),
// 1 forces sparse nearly everywhere (property tests). The setting is
// process-wide; results at any setting differ only in ≤1e-12 relative
// rounding, and a fixed setting is deterministic at any worker count.
func SetSparseMinStates(n int) int {
	prev := sparseMinStates()
	if n <= 0 {
		sparseMinOverride.Store(0)
	} else {
		sparseMinOverride.Store(int64(n))
	}
	return prev
}

func sparseMinStates() int {
	if n := sparseMinOverride.Load(); n > 0 {
		return int(n)
	}
	return defaultSparseMinStates
}

// sparseRoute is the one dense/sparse routing predicate: an m×m
// absorption matrix with nnz stored entries solves sparse when m reaches
// the crossover and the density guard admits it.
func sparseRoute(m, nnz int) bool {
	return m >= sparseMinStates() && float64(nnz) <= maxSparseDensity*float64(m)*float64(m)
}

// topoCache is a BatchSolver's MRU list of topologies, each matched by
// its Symbolic's own copy of the pattern it analyzed.
type topoCache []*topoEntry

// topoEntry is one cached topology: its symbolic factorization, held by
// the Numeric that factors against it, and the lane programs compiled
// over it (BindProgram), most recent first.
type topoEntry struct {
	num   *sparse.Numeric
	progs []*laneProgram
}

// lookup returns the cached topology whose pattern matches a, and
// whether it was a cache hit, building (and caching) a new symbolic
// analysis on miss. Hits move to the front; the cache evicts from the
// back. Hit or miss is invisible in the results: the ordering is a pure
// function of the pattern, so a cached and a fresh analysis factor
// identically. A miss's ordering + symbolic analysis is traced as
// "sparse.symbolic"; hits skip that work and so carry no span. a is only
// read; the Symbolic keeps its own copy of the pattern.
func (tc *topoCache) lookup(ctx context.Context, a *sparse.CSR) (*topoEntry, bool, error) {
	cache := *tc
	for i, te := range cache {
		rowptr, col := te.num.Symbolic().Pattern()
		if !slices.Equal(rowptr, a.RowPtr) || !slices.Equal(col, a.Col) {
			continue
		}
		if i > 0 {
			copy(cache[1:i+1], cache[:i])
			cache[0] = te
		}
		return te, true, nil
	}
	_, sp := obs.StartSpan(ctx, "sparse.symbolic")
	sym, err := sparse.Analyze(a)
	if sp != nil {
		sp.SetAttr("nnz", a.NNZ())
		sp.End()
	}
	if err != nil {
		return nil, false, err
	}
	te := &topoEntry{num: sparse.NewNumeric(sym)}
	if len(cache) < topoCacheSize {
		cache = append(cache, nil)
	}
	copy(cache[1:], cache)
	cache[0] = te
	*tc = cache
	return te, false, nil
}

// resize returns v with length n, reusing its storage when it is big
// enough; the contents are unspecified.
func resize[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// MTTA returns the chain's mean time to absorption. It solves through a
// pooled BatchSolver as a one-cell batch — the same assembly, routing
// and topology cache the batched sweeps use — so repeated calls (the
// inner loop of every per-cell analysis) reuse factorization and scratch
// storage instead of reallocating. It returns an error if the chain
// fails Validate, the absorption matrix is singular, or the solve's MTTA
// is not positive and finite (float64 exhausted); an absorbing initial
// state has MTTA 0. Chains whose transient count reaches the sparse
// crossover (SetSparseMinStates) solve through the sparse
// symbolic/numeric path, agreeing with dense to ≤1e-12 relative error. Absorption and RateSensitivities solve through
// the same one-cell path, so their MTTA is bit-identical to this one on
// every chain. A mutable chain is solved as its frozen equivalent
// without being frozen.
//
// When the context holds an active span (obs.StartSpan), the solve and
// its stages — symbolic analysis, numeric refactorization, triangular
// solve, dense fallback — are attributed as child spans. The context is
// not a cancellation point (a single solve is far below any useful
// cancellation granularity).
func MTTA(ctx context.Context, c *Chain) (float64, error) {
	b := AcquireBatchSolver()
	v, err := b.solveChain(ctx, c)
	ReleaseBatchSolver(b)
	return v, err
}

// tauPlausible reports whether a computed mean-time-in-state vector is
// numerically trustworthy. Every τ_i is nonnegative in exact arithmetic
// (it is an expected sojourn time), so a component significantly below
// zero — beyond rounding noise relative to the largest component — is a
// certificate that the solve lost all accuracy (the matrix is so
// ill-conditioned that static pivoting broke down; near float64
// exhaustion even partial pivoting returns garbage, but the dense path's
// garbage is the documented legacy behavior, which core's usability
// checks then judge). So is a NaN component, which no comparison
// catches: it shows in the vector's running sum. The test is a pure
// function of the values, so the sparse/dense routing stays
// deterministic at any worker count.
func tauPlausible(tau []float64) bool {
	var worst, scale, sum float64
	for _, v := range tau {
		worst, scale, sum = tauStep(v, worst, scale, sum)
	}
	return plausible(worst, scale, sum)
}

// tauStep folds the τ entry v into tauPlausible's most negative entry
// and largest magnitude (a NaN moves neither) and into a linalg.Sum
// running sum (which a NaN makes NaN).
func tauStep(v, worst, scale, sum float64) (float64, float64, float64) {
	if v < worst {
		worst = v
	}
	if v > scale {
		scale = v
	} else if -v > scale {
		scale = -v
	}
	return worst, scale, sum + v
}

// plausible is tauPlausible's verdict on a τ vector's most negative
// entry, largest magnitude and sum: no entry significantly below zero,
// and none NaN.
func plausible(worst, scale, sum float64) bool {
	return worst >= -1e-9*scale && !math.IsNaN(sum)
}

// sparseResidual computes ‖Rᵀτ − e_init‖∞ through the CSR matrix,
// using scratch (length ≥ n) for the product — instrumented solves only.
func sparseResidual(r *sparse.CSR, tau []float64, initRow int, scratch []float64) float64 {
	prod := r.VecMulInto(scratch[:len(tau)], tau)
	var worst float64
	for j, v := range prod {
		if j == initRow {
			v -= 1
		}
		if v < 0 {
			v = -v
		}
		if v > worst {
			worst = v
		}
	}
	return worst
}

// SparseStats describes the absorption matrix of a chain as the sparse
// solver sees it: dimension, stored entries, density, and the fill the
// symbolic factorization would incur. Sparse reports whether MTTA would
// take the sparse path at the current crossover settings.
type SparseStats struct {
	// N is the absorption matrix dimension (transient states); NNZ its
	// stored entries; Density NNZ/N².
	N, NNZ  int
	Density float64
	// FactorNNZ counts the entries of L+U (unit diagonal included);
	// FillRatio is FactorNNZ/NNZ — 1.0 means a perfect no-fill ordering.
	FactorNNZ int
	FillRatio float64
	// Sparse reports whether MTTA would use the sparse path.
	Sparse bool
}

// AbsorptionSparseStats analyzes the chain's absorption matrix pattern
// without solving it. The chain must validate and have a transient
// initial state.
func AbsorptionSparseStats(c *Chain) (SparseStats, error) {
	if err := c.Validate(); err != nil {
		return SparseStats{}, err
	}
	b := AcquireBatchSolver()
	defer ReleaseBatchSolver(b)
	if !c.Frozen() {
		c = b.frozenCopy(c)
	}
	b.bindPattern(c)
	if b.initRow < 0 {
		return SparseStats{}, fmt.Errorf("markov: initial state is absorbing")
	}
	sym, err := sparse.Analyze(&b.view)
	if err != nil {
		return SparseStats{}, fmt.Errorf("markov: absorption matrix: %w", err)
	}
	return SparseStats{
		N:         len(b.trans),
		NNZ:       b.view.NNZ(),
		Density:   b.view.Density(),
		FactorNNZ: sym.FactorNNZ(),
		FillRatio: sym.FillRatio(),
		Sparse:    b.sparseRoute,
	}, nil
}
