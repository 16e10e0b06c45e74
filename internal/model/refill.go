package model

import (
	"fmt"
	"sync"

	"repro/internal/closedform"
	"repro/internal/combinat"
	"repro/internal/markov"
)

// String-free chain refills for batched sweeps.
//
// Profiling the exact-chain sweep shows the per-cell cost dominated not
// by the linear solve but by chain construction: buildNIR/buildIR spend
// their time concatenating state labels, padding them, and looking the
// strings up in the chain's name map — allocation-heavy work that
// repeats identically for every cell of a sweep. A refiller runs the
// builder ONCE through an edgeRecorder to compile the label arithmetic
// down to a program of frozen-chain edge indices, then refills each cell
// by evaluating only the rate expressions (in the builder's exact
// emission order) and replaying them through markov.Chain.ApplyRates.
// Accumulation order and exit-sum order match the string path addition
// for addition, so a refilled chain is bit-identical to a freshly built
// one — a batched sweep cell reproduces a solve of the string-built
// chain exactly.

// edgeSink receives the builders' emissions: the chain itself on the
// build/refill string path, or an edgeRecorder when compiling a program.
type edgeSink interface {
	AddEdge(from, to string, rate float64)
}

// edgeRecorder resolves each emitted (from, to) label pair against a
// frozen chain once, recording the edge index; rates are ignored.
type edgeRecorder struct {
	c       *markov.Chain
	program []int
}

func (r *edgeRecorder) AddEdge(from, to string, rate float64) {
	idx := r.c.EdgeIndex(from, to)
	if idx < 0 {
		panic(fmt.Sprintf("model: recorded edge %s→%s not in frozen topology %q", from, to, r.c.Label()))
	}
	r.program = append(r.program, idx)
}

// NIRRefiller refills a no-internal-RAID chain of fixed fault tolerance
// k without touching a string: Refill is allocation-free after the first
// call. Not safe for concurrent use; each sweep worker owns one (see
// AcquireNIRRefiller).
type NIRRefiller struct {
	c       *markov.Chain
	k       int
	program []int
	rates   []float64
	hs      []float64 // h_α table for in, indexed by word bits (hAt)
	in      closedform.NIRInputs
}

var nirRefillers sync.Map // k → *sync.Pool of *NIRRefiller

// AcquireNIRRefiller returns a refiller for fault tolerance k with its
// chain filled for in — recycled when the pool has one, compiled fresh
// otherwise. Panics on invalid geometry, exactly like NIRChain.
func AcquireNIRRefiller(in closedform.NIRInputs, k int) *NIRRefiller {
	if p, ok := nirRefillers.Load(k); ok {
		if r, _ := p.(*sync.Pool).Get().(*NIRRefiller); r != nil {
			r.Refill(in)
			return r
		}
	}
	c := NIRChain(in, k) // validates, builds (or refills) with in's rates
	rec := edgeRecorder{c: c}
	buildNIR(&rec, in, k, "")
	return &NIRRefiller{
		c:       c,
		k:       k,
		program: rec.program,
		rates:   make([]float64, 0, len(rec.program)),
		hs:      make([]float64, 0, 1<<k),
	}
}

// Release hands the refiller (and its captive chain) back for recycling.
// The caller must not use it, or its chain, afterwards.
func (r *NIRRefiller) Release() {
	p, _ := nirRefillers.LoadOrStore(r.k, &sync.Pool{})
	p.(*sync.Pool).Put(r)
}

// Chain returns the refiller's chain, filled by the last Refill.
func (r *NIRRefiller) Chain() *markov.Chain { return r.c }

// Refill loads in's rates into the chain and returns it. The rate
// expressions and their emission order mirror buildNIR exactly.
func (r *NIRRefiller) Refill(in closedform.NIRInputs) *markov.Chain {
	if in.N <= r.k+1 || in.R <= r.k || in.R > in.N || in.D < 1 {
		panic(fmt.Sprintf("model: invalid NIR geometry N=%d R=%d d=%d k=%d", in.N, in.R, in.D, r.k))
	}
	r.in = in
	r.rates = r.rates[:0]
	r.hs = combinat.AppendHSet(r.hs[:0], in.N, in.R, in.D, in.CHER, r.k)
	r.emitNIR(0, 0)
	r.c.ApplyRates(r.program, r.rates)
	return r.c
}

// emitNIR is buildNIR with the label arithmetic deleted: same recursion,
// same float expressions, same order, rates only. word holds the j
// outstanding failures as bits, most recent lowest (see hAt).
func (r *NIRRefiller) emitNIR(j, word int) {
	in := r.in
	n := float64(in.N) - float64(j)
	d := float64(in.D)

	if j > 0 {
		mu := in.MuN
		if word&1 == 1 {
			mu = in.MuD
		}
		r.rates = append(r.rates, mu)
	}

	if j == r.k {
		r.rates = append(r.rates, n*(in.LambdaN+d*in.LambdaD))
		return
	}

	nodeRate := n * in.LambdaN
	driveRate := n * d * in.LambdaD
	if j == r.k-1 {
		hN := hAt(r.hs, word<<1)
		hD := hAt(r.hs, word<<1|1)
		r.rates = append(r.rates, nodeRate*(1-hN))
		r.rates = append(r.rates, driveRate*(1-hD))
		r.rates = append(r.rates, nodeRate*hN+driveRate*hD)
	} else {
		r.rates = append(r.rates, nodeRate)
		r.rates = append(r.rates, driveRate)
	}
	r.emitNIR(j+1, word<<1)
	r.emitNIR(j+1, word<<1|1)
}

// IRRefiller is the internal-RAID counterpart of NIRRefiller.
type IRRefiller struct {
	c       *markov.Chain
	k       int
	program []int
	rates   []float64
	in      closedform.IRInputs
}

var irRefillers sync.Map // k → *sync.Pool of *IRRefiller

// AcquireIRRefiller returns a refiller for fault tolerance k with its
// chain filled for in. Panics on invalid geometry, exactly like IRChain.
func AcquireIRRefiller(in closedform.IRInputs, k int) *IRRefiller {
	if p, ok := irRefillers.Load(k); ok {
		if r, _ := p.(*sync.Pool).Get().(*IRRefiller); r != nil {
			r.Refill(in)
			return r
		}
	}
	c := IRChain(in, k)
	rec := edgeRecorder{c: c}
	buildIR(&rec, in, k)
	return &IRRefiller{
		c:       c,
		k:       k,
		program: rec.program,
		rates:   make([]float64, 0, len(rec.program)),
	}
}

// Release hands the refiller (and its captive chain) back for recycling.
func (r *IRRefiller) Release() {
	p, _ := irRefillers.LoadOrStore(r.k, &sync.Pool{})
	p.(*sync.Pool).Put(r)
}

// Chain returns the refiller's chain, filled by the last Refill.
func (r *IRRefiller) Chain() *markov.Chain { return r.c }

// Refill loads in's rates into the chain and returns it, mirroring
// buildIR's expressions and order.
func (r *IRRefiller) Refill(in closedform.IRInputs) *markov.Chain {
	if in.N <= r.k+1 || in.R < r.k+1 || in.R > in.N {
		panic(fmt.Sprintf("model: invalid IR geometry N=%d R=%d k=%d", in.N, in.R, r.k))
	}
	r.in = in
	r.rates = r.rates[:0]
	r.emitIR()
	r.c.ApplyRates(r.program, r.rates)
	return r.c
}

// emitIR is buildIR with the labels deleted.
func (r *IRRefiller) emitIR() {
	in := r.in
	n := float64(in.N)
	lambda := in.LambdaN + in.LambdaArray
	kk := combinat.CriticalFraction(in.N, in.R, r.k)
	for i := 0; i < r.k; i++ {
		r.rates = append(r.rates, (n-float64(i))*lambda)
		if i > 0 {
			r.rates = append(r.rates, in.MuN)
		}
	}
	r.rates = append(r.rates, in.MuN)
	r.rates = append(r.rates, (n-float64(r.k))*(lambda+kk*in.LambdaSector))
}
