package model

import (
	"sync"

	"repro/internal/closedform"
	"repro/internal/markov"
)

// One rate emitter per chain family.
//
// Each §5.2 rate expression is written once, in a string-free emitter
// (nirEmitter, irEmitter) that appends a chain's rates in a fixed
// emission order and names states by small integers. A topology build
// (NIRChain, IRChain) runs the emitter with endpoint recording on and
// renders the state labels once, while laying the chain out. A refiller
// compiles the recorded endpoints to frozen-chain edge indices once, then
// refills each cell by re-running the emitter with recording off and
// handing the rates to markov.Chain.ApplyRates: no strings, no maps, no
// allocation and no per-edge interface or closure call. Fresh build and
// refill see the same rates in the same order and sum exits in the same
// sorted order, so a refilled chain is bit-identical to a fresh one — a
// batched sweep cell reproduces a solve of the freshly built chain
// exactly. A batched sweep skips the chain altogether: Emit hands the
// rate vector straight to markov.BatchSolver.FillRates, which performs
// the same float operations into its value slab.

// lossState is the emitters' id of the absorbing data-loss state.
const lossState = -1

// edgeEnds is one emitted edge's endpoints as emitter state ids.
type edgeEnds struct{ from, to int }

// emission collects one emitter pass: the rates in emission order and,
// when record is set (topology builds only), their endpoints.
type emission struct {
	rates  []float64
	ends   []edgeEnds
	record bool
}

func (e *emission) add(from, to int, rate float64) {
	e.rates = append(e.rates, rate)
	if e.record {
		e.ends = append(e.ends, edgeEnds{from, to})
	}
}

// layout lays a recorded emission out as a frozen chain with the given
// topology label, naming states through name. States are created in
// emission order after the initial and loss states; every edge is added
// with AddEdge, so zero-rate edges stay structural.
func (e *emission) layout(label string, name func(int) string, initial int) *markov.Chain {
	c := markov.NewChain()
	c.SetLabel(label)
	c.SetInitial(name(initial))
	c.SetAbsorbing(name(lossState))
	for i, ee := range e.ends {
		c.AddEdge(name(ee.from), name(ee.to), e.rates[i])
	}
	return c.Freeze()
}

// compile resolves the recorded endpoints against c, the chain laid out
// from them, to a refill program of frozen edge indices, and turns
// recording off.
func (e *emission) compile(c *markov.Chain, name func(int) string) []int {
	program := make([]int, len(e.ends))
	for i, ee := range e.ends {
		program[i] = c.EdgeIndex(name(ee.from), name(ee.to))
	}
	e.ends, e.record = nil, false
	return program
}

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
	c       *markov.Chain
	program []int
	e       nirEmitter
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
	r.c = r.e.build(in)
	r.program = r.e.compile(r.c, nirName(k))
	return r
}

// Release hands the refiller (and its captive chain) back for recycling.
// The caller must not use it, or its chain, afterwards.
func (r *NIRRefiller) Release() { loadPool(&nirRefillers, r.e.k).Put(r) }

// Chain returns the refiller's chain, filled by the last Refill.
func (r *NIRRefiller) Chain() *markov.Chain { return r.c }

// Refill loads in's rates into the chain and returns it.
func (r *NIRRefiller) Refill(in closedform.NIRInputs) *markov.Chain {
	r.c.ApplyRates(r.program, r.Emit(in))
	return r.c
}

// Emit returns in's rates in emission order without touching the
// chain, for a markov.BatchSolver that compiled Program
// (BindProgram/FillRates). The slice is reused by the next Emit or
// Refill.
func (r *NIRRefiller) Emit(in closedform.NIRInputs) []float64 {
	r.e.fill(in)
	return r.e.rates
}

// Program returns the refill program: emission i fills the chain's edge
// Program()[i]. It gives every edge exactly one emission. The caller
// must not modify it.
func (r *NIRRefiller) Program() []int { return r.program }

// IRRefiller is the internal-RAID counterpart of NIRRefiller.
type IRRefiller struct {
	c       *markov.Chain
	program []int
	e       irEmitter
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
	r.c = r.e.build(in)
	r.program = r.e.compile(r.c, irName)
	return r
}

// Release hands the refiller (and its captive chain) back for recycling.
func (r *IRRefiller) Release() { loadPool(&irRefillers, r.e.k).Put(r) }

// Chain returns the refiller's chain, filled by the last Refill.
func (r *IRRefiller) Chain() *markov.Chain { return r.c }

// Refill loads in's rates into the chain and returns it.
func (r *IRRefiller) Refill(in closedform.IRInputs) *markov.Chain {
	r.c.ApplyRates(r.program, r.Emit(in))
	return r.c
}

// Emit returns in's rates in emission order without touching the
// chain; see NIRRefiller.Emit.
func (r *IRRefiller) Emit(in closedform.IRInputs) []float64 {
	r.e.fill(in)
	return r.e.rates
}

// Program returns the refill program; see NIRRefiller.Program.
func (r *IRRefiller) Program() []int { return r.program }
