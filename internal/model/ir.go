package model

import (
	"fmt"
	"strconv"

	"repro/internal/closedform"
	"repro/internal/combinat"
	"repro/internal/markov"
)

// IRChain builds the node-level chain for nodes with internal RAID and
// inter-node fault tolerance k (Figures 5, 6 and 7 for k = 1, 2, 3; the
// same birth-death-with-absorption structure extends to any k).
//
// State i (0 ≤ i ≤ k) has i outstanding node-or-array failures. Failures
// arrive at rate (N-i)(λ_N+λ_D); each repairs at μ_N back to state i-1.
// From state k, one more failure — or a sector error in the critical
// fraction k_k of redundancy sets — absorbs into data loss:
// rate (N-k)(λ_N+λ_D+k_k·λ_S).
func IRChain(in closedform.IRInputs, k int) *markov.Chain {
	e := irEmitter{k: k}
	c, _, _ := e.build(in)
	return c
}

// irEmitter is the one home of the IR rate expressions: fill evaluates
// the birth-death rates for in, walk records their edges, state i named
// by its level i. Every edge is its own rate class (the identity class
// map), in emission order. Like nirEmitter it keeps structural edges at
// parameter corners, so the topology depends on k alone.
type irEmitter struct {
	k int
}

// build evaluates in's rates and lays the chain out from a fresh walk.
func (e *irEmitter) build(in closedform.IRInputs) (*markov.Chain, *topology, []float64) {
	vals := e.fill(nil, in)
	t := &topology{}
	e.walk(t)
	return t.layout("ir/"+strconv.Itoa(e.k), irName, 0, vals), t, vals
}

// fill validates in against the emitter's fault tolerance and appends
// its rates, in emission order, to v[:0].
func (e *irEmitter) fill(v []float64, in closedform.IRInputs) []float64 {
	k := e.k
	if k < 1 {
		panic(fmt.Sprintf("model: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 || in.R < k+1 || in.R > in.N {
		panic(fmt.Sprintf("model: invalid IR geometry N=%d R=%d k=%d", in.N, in.R, k))
	}
	v = v[:0]
	n := float64(in.N)
	lambda := in.LambdaN + in.LambdaArray
	kk := combinat.CriticalFraction(in.N, in.R, k)
	for i := 0; i < k; i++ {
		v = append(v, (n-float64(i))*lambda)
		if i > 0 {
			v = append(v, in.MuN)
		}
	}
	return append(v, in.MuN, (n-float64(k))*(lambda+kk*in.LambdaSector))
}

// walk records fill's edges in its order, each its own class.
func (e *irEmitter) walk(t *topology) {
	for i := 0; i < e.k; i++ {
		t.add(i, i+1, len(t.class))
		if i > 0 {
			t.add(i, i-1, len(t.class))
		}
	}
	t.add(e.k, e.k-1, len(t.class))
	t.add(e.k, lossState, len(t.class))
}

// irName renders an irEmitter state id as its level, "0" … "k"; level 0
// is the initial state.
func irName(id int) string {
	if id == lossState {
		return "loss"
	}
	return strconv.Itoa(id)
}
