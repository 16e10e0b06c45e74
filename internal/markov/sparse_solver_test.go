package markov

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sizedRandomAbsorbingChain builds a random layered absorbing chain of
// roughly the requested size, always valid by construction: every state
// keeps a forward rate toward absorption. Rates are kept within a couple
// of orders of magnitude: with moderate conditioning the 1e-12 agreement
// bound below is a property of the solvers, not of luck — on stiff
// near-exhaustion chains ANY two elimination orders diverge by κ·ε (and
// the solver's dense fallback, not tighter tolerance, is the answer
// there).
func sizedRandomAbsorbingChain(rng *rand.Rand, layers, width int) *Chain {
	c := NewChain()
	name := func(l, w int) string { return fmt.Sprintf("s%d_%d", l, w) }
	c.SetInitial(name(0, 0))
	c.SetAbsorbing("A")
	for l := 0; l < layers; l++ {
		for w := 0; w < width; w++ {
			from := name(l, w)
			if l == layers-1 {
				c.AddRate(from, "A", 0.05+rng.Float64())
			} else {
				c.AddRate(from, name(l+1, rng.Intn(width)), 0.05+rng.Float64())
			}
			if w+1 < width && rng.Intn(2) == 0 {
				c.AddRate(from, name(l, w+1), rng.Float64())
			}
			if l > 0 && rng.Intn(2) == 0 {
				c.AddRate(from, name(l-1, rng.Intn(width)), rng.Float64()*3)
			}
		}
	}
	return c
}

// Property (the tentpole's correctness gate): the sparse solve path and
// the dense solve path agree within 1e-12 relative on random chains, with
// both paths forced through one shared BatchSolver so the topology cache is
// exercised across wildly mixed patterns.
func TestRandomChainsSparseMatchesDense(t *testing.T) {
	prev := SetSparseMinStates(1)
	defer SetSparseMinStates(prev)
	rng := rand.New(rand.NewSource(99))
	s := NewBatchSolver()
	for trial := 0; trial < 1200; trial++ {
		layers := 2 + rng.Intn(7)
		width := 1 + rng.Intn(6)
		c := sizedRandomAbsorbingChain(rng, layers, width)
		if trial%3 == 0 {
			c.Freeze()
		}
		SetSparseMinStates(1 << 30)
		dense, err := s.solveChain(context.Background(), c)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		SetSparseMinStates(1)
		sp, err := s.solveChain(context.Background(), c)
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		if rel := math.Abs(sp-dense) / math.Abs(dense); rel > 1e-12 {
			t.Fatalf("trial %d (%d states): sparse %v vs dense %v (rel %g)",
				trial, c.NumStates(), sp, dense, rel)
		}
	}
}

// Property: freezing a chain changes nothing — MTTA, absorption
// probabilities, and time in state are bit-identical to the mutable
// form (the CSR iteration order is the sorted order Successors always
// used).
func TestFreezeBitIdentical(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		seed := int64(1000 + trial)
		mk := func() *Chain {
			rng := rand.New(rand.NewSource(seed))
			return sizedRandomAbsorbingChain(rng, 2+rng.Intn(4), 1+rng.Intn(4))
		}
		mut, froz := mk(), mk().Freeze()
		rm, err := Absorption(mut)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := Absorption(froz)
		if err != nil {
			t.Fatal(err)
		}
		if rm.MeanTimeToAbsorption != rf.MeanTimeToAbsorption {
			t.Fatalf("trial %d: MTTA %v (mutable) != %v (frozen)",
				trial, rm.MeanTimeToAbsorption, rf.MeanTimeToAbsorption)
		}
		for name, v := range rm.TimeInState {
			if rf.TimeInState[name] != v {
				t.Fatalf("trial %d: τ[%s] differs after freeze", trial, name)
			}
		}
	}
}

// refillTopology adds one fixed edge set with rates scaled by s — the
// shape a model builder has: topology fixed, values parameter-dependent.
// One edge rate is zero at s == 2 to exercise structural zero edges.
func refillTopology(c *Chain, s float64) {
	c.AddEdge("a", "b", 3*s)
	c.AddEdge("a", "loss", 0.01*s)
	c.AddEdge("b", "a", 40*s)
	c.AddEdge("b", "c", 2*s)
	c.AddEdge("b", "loss", 0.02*s*(2-s)*(2-s)) // 0 at s=2, structurally present
	c.AddEdge("c", "b", 35*s)
	c.AddEdge("c", "loss", 1.5*s)
}

func freshRefillChain(s float64) *Chain {
	c := NewChain()
	c.SetInitial("a")
	c.SetAbsorbing("loss")
	refillTopology(c, s)
	return c.Freeze()
}

// Property: a chain refilled through ApplyRates solves bit-identically
// to a freshly built one — structural zero edges (s == 2) included — so
// the recycling model refillers use is invisible in results.
func TestRefillMatchesFreshBuild(t *testing.T) {
	c := freshRefillChain(1)
	for _, s := range []float64{0.5, 2, 1, 7.25} {
		fresh := freshRefillChain(s)
		copyRates(c, fresh)
		want, err := MTTA(context.Background(), fresh)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MTTA(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("scale %v: refilled MTTA %v != fresh %v", s, got, want)
		}
	}
}

// Property: the solver's symbolic cache is invisible — a long-lived
// BatchSolver alternating between topologies returns bitwise the same
// values as a fresh one per chain, under both orderings of cache warmth.
func TestSolverCacheDeterministic(t *testing.T) {
	prev := SetSparseMinStates(1)
	defer SetSparseMinStates(prev)
	rng := rand.New(rand.NewSource(7))
	chains := make([]*Chain, 0, 30)
	for i := 0; i < 30; i++ {
		chains = append(chains, sizedRandomAbsorbingChain(rng, 2+i%5, 1+i%4).Freeze())
	}
	warm := NewBatchSolver()
	for pass := 0; pass < 3; pass++ { // later passes hit the warm cache
		for i, c := range chains {
			got, err := warm.solveChain(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewBatchSolver().solveChain(context.Background(), c)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pass %d chain %d: warm solver %v != fresh solver %v", pass, i, got, want)
			}
		}
	}
}

func TestFrozenChainSealed(t *testing.T) {
	c := freshRefillChain(1)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("new state", func() { c.State("zz") })
	mustPanic("rate on frozen chain", func() { c.AddRate("a", "b", 1) })
	mustPanic("edge on frozen chain", func() { c.AddEdge("a", "c", 1) })
}

func TestFrozenSuccessorsViewNoAlloc(t *testing.T) {
	c := freshRefillChain(1)
	i, _ := c.StateIndex("b")
	if n := testing.AllocsPerRun(200, func() {
		for _, e := range c.Successors(i) {
			_ = e
		}
	}); n != 0 {
		t.Errorf("frozen Successors allocates %v per run", n)
	}
}

// Structural zero edges must not fool Validate: a transient state whose
// only outgoing edges have rate zero still has no escape.
func TestValidateIgnoresStructuralZeroEdges(t *testing.T) {
	c := NewChain()
	c.SetInitial("x")
	c.SetAbsorbing("loss")
	c.AddEdge("x", "loss", 0)
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a chain whose only edges are structural zeros")
	}
	if err := c.Freeze().Validate(); err == nil {
		t.Fatal("Validate accepted the frozen equivalent")
	}
}
