package model

import (
	"sync"

	"repro/internal/closedform"
	"repro/internal/markov"
)

// One rate emitter per chain family, evaluated by rate class.
//
// Each §5.2 rate expression is written once, in a string-free emitter
// (nirEmitter, irEmitter). An emitter splits a chain's rates into rate
// classes — the distinct values its edges take: 5k+1 for the NIR chain,
// whose 11·2^(k-1)−4 edges (700 at k = 7) share their depth's failure
// rates, and one per edge (the identity class map) for the small IR
// chain. fill evaluates one cell's class values; walk, run once per topology, emits every
// edge in a fixed emission order with its endpoints (small integer
// state ids) and its class. A topology build (NIRChain, IRChain) runs
// both, renders the state labels once and lays the chain out with edge
// i at rate vals[class[i]]. A refiller compiles the recorded endpoints
// to frozen-chain edge indices once; per cell it runs fill alone — no
// strings, no maps, no allocation, no recursion and no per-edge
// interface or closure call. Refill expands the class values through
// the class map and hands them to markov.Chain.ApplyRates; a batched
// sweep skips the chain altogether: Emit writes the class values into
// the caller's lane buffer and markov.BatchSolver.Solve, which composed
// the class map into its fill order at BindProgram, reads every edge's
// rate from it. Every class keeps the float
// expression of the edges it stands for, and fresh build and refill see
// the same rates in the same order and sum exits in the same sorted
// order, so a refilled chain is bit-identical to a fresh one — a
// batched sweep cell reproduces a solve of the freshly built chain
// exactly.

// lossState is the emitters' id of the absorbing data-loss state.
const lossState = -1

// edgeEnds is one emitted edge's endpoints as emitter state ids.
type edgeEnds struct{ from, to int }

// topology is one recorded walk: every edge's endpoints and rate class,
// in emission order, and the state names it was laid out with.
type topology struct {
	ends  []edgeEnds
	class []int
	name  func(int) string
}

func (t *topology) add(from, to, class int) {
	t.ends = append(t.ends, edgeEnds{from, to})
	t.class = append(t.class, class)
}

// layout lays the topology out as a frozen chain with the given label,
// naming states through name, edge i at rate vals[class[i]]. States are
// created in emission order after the initial and loss states; every
// edge is added with AddEdge, so zero-rate edges stay structural.
func (t *topology) layout(label string, name func(int) string, initial int, vals []float64) *markov.Chain {
	t.name = name
	c := markov.NewChain()
	c.SetLabel(label)
	c.SetInitial(name(initial))
	c.SetAbsorbing(name(lossState))
	for i, ee := range t.ends {
		c.AddEdge(name(ee.from), name(ee.to), vals[t.class[i]])
	}
	return c.Freeze()
}

// refill is a refiller's compiled state: its captive chain, the refill
// program (emission i fills edge program[i]), the class map (emission
// i's rate is class value class[i]), the class values of the latest
// Refill and their expansion in emission order.
type refill struct {
	c       *markov.Chain
	program []int
	class   []int
	vals    []float64
	rates   []float64
}

// compile resolves t's endpoints against c, the chain laid out from it
// holding the class values vals, to a refill program of frozen edge
// indices.
func compile(c *markov.Chain, t *topology, vals []float64) refill {
	program := make([]int, len(t.ends))
	for i, ee := range t.ends {
		program[i] = c.EdgeIndex(t.name(ee.from), t.name(ee.to))
	}
	return refill{c: c, program: program, class: t.class, vals: vals, rates: make([]float64, len(program))}
}

// apply expands the class values through the class map into the chain
// and returns it.
func (r *refill) apply() *markov.Chain {
	for i, c := range r.class {
		r.rates[i] = r.vals[c]
	}
	r.c.ApplyRates(r.program, r.rates)
	return r.c
}

// Chain returns the refiller's chain, filled by the last Refill.
func (r *refill) Chain() *markov.Chain { return r.c }

// Program returns the refill program: emission i fills the chain's edge
// Program()[i]. It gives every edge exactly one emission. The caller
// must not modify it.
func (r *refill) Program() []int { return r.program }

// Classes returns the class map: emission i's rate is the class value
// Classes()[i] of an Emit. The caller must not modify it.
func (r *refill) Classes() []int { return r.class }

// loadPool returns the refiller pool for key in m, creating it on the
// first miss only, so a warm Release allocates nothing.
func loadPool(m *sync.Map, key int) *sync.Pool {
	if p, ok := m.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := m.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// NIRRefiller refills a no-internal-RAID chain of fixed fault tolerance
// k without touching a string: Refill is allocation-free after the first
// call. Not safe for concurrent use; each sweep worker owns one (see
// AcquireNIRRefiller).
type NIRRefiller struct {
	refill
	e nirEmitter
}

var nirRefillers sync.Map // k → *sync.Pool of *NIRRefiller

// AcquireNIRRefiller returns a refiller for fault tolerance k with its
// chain filled for in — recycled when the pool has one, compiled fresh
// otherwise. Panics on invalid geometry, exactly like NIRChain.
func AcquireNIRRefiller(in closedform.NIRInputs, k int) *NIRRefiller {
	if r, _ := loadPool(&nirRefillers, k).Get().(*NIRRefiller); r != nil {
		r.Refill(in)
		return r
	}
	r := &NIRRefiller{e: nirEmitter{k: k}}
	r.refill = compile(r.e.build(in))
	return r
}

// Release hands the refiller (and its captive chain) back for recycling.
// The caller must not use it, or its chain, afterwards.
func (r *NIRRefiller) Release() { loadPool(&nirRefillers, r.e.k).Put(r) }

// Refill loads in's rates into the chain and returns it.
func (r *NIRRefiller) Refill(in closedform.NIRInputs) *markov.Chain {
	r.vals = r.e.fill(r.vals, in)
	return r.apply()
}

// Emit writes in's class values — 5k+1 of them, whatever the chain's
// size — over dst (reusing its storage) and returns the result, for a
// markov.BatchSolver that compiled Program and Classes (BindProgram,
// then Solve). It does not touch the chain.
func (r *NIRRefiller) Emit(dst []float64, in closedform.NIRInputs) []float64 {
	return r.e.fill(dst, in)
}

// IRRefiller is the internal-RAID counterpart of NIRRefiller. Its class
// map is the identity: Emit writes the rates in emission order.
type IRRefiller struct {
	refill
	e irEmitter
}

var irRefillers sync.Map // k → *sync.Pool of *IRRefiller

// AcquireIRRefiller returns a refiller for fault tolerance k with its
// chain filled for in. Panics on invalid geometry, exactly like IRChain.
func AcquireIRRefiller(in closedform.IRInputs, k int) *IRRefiller {
	if r, _ := loadPool(&irRefillers, k).Get().(*IRRefiller); r != nil {
		r.Refill(in)
		return r
	}
	r := &IRRefiller{e: irEmitter{k: k}}
	r.refill = compile(r.e.build(in))
	return r
}

// Release hands the refiller (and its captive chain) back for recycling.
func (r *IRRefiller) Release() { loadPool(&irRefillers, r.e.k).Put(r) }

// Refill loads in's rates into the chain and returns it.
func (r *IRRefiller) Refill(in closedform.IRInputs) *markov.Chain {
	r.vals = r.e.fill(r.vals, in)
	return r.apply()
}

// Emit writes in's class values over dst and returns the result; see
// NIRRefiller.Emit.
func (r *IRRefiller) Emit(dst []float64, in closedform.IRInputs) []float64 {
	return r.e.fill(dst, in)
}
