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
	return e.build(in)
}

// irEmitter is the one home of the IR rate expressions: fill emits the
// birth-death edges for in, state i named by its level i. Like
// nirEmitter it keeps structural edges at parameter corners, so the
// topology depends on k alone.
type irEmitter struct {
	emission
	k int
}

// build fills the emitter for in, recording endpoints, and lays the
// chain out.
func (e *irEmitter) build(in closedform.IRInputs) *markov.Chain {
	e.record = true
	e.fill(in)
	return e.layout("ir/"+strconv.Itoa(e.k), irName, 0)
}

// fill validates in against the emitter's fault tolerance and emits its
// rates.
func (e *irEmitter) fill(in closedform.IRInputs) {
	k := e.k
	if k < 1 {
		panic(fmt.Sprintf("model: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 || in.R < k+1 || in.R > in.N {
		panic(fmt.Sprintf("model: invalid IR geometry N=%d R=%d k=%d", in.N, in.R, k))
	}
	e.rates = e.rates[:0]
	n := float64(in.N)
	lambda := in.LambdaN + in.LambdaArray
	kk := combinat.CriticalFraction(in.N, in.R, k)
	for i := 0; i < k; i++ {
		e.add(i, i+1, (n-float64(i))*lambda)
		if i > 0 {
			e.add(i, i-1, in.MuN)
		}
	}
	e.add(k, k-1, in.MuN)
	e.add(k, lossState, (n-float64(k))*(lambda+kk*in.LambdaSector))
}

// irName renders an irEmitter state id as its level, "0" … "k"; level 0
// is the initial state.
func irName(id int) string {
	if id == lossState {
		return "loss"
	}
	return strconv.Itoa(id)
}
