package model

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"repro/internal/closedform"
	"repro/internal/combinat"
	"repro/internal/markov"
)

// NIRChain builds the chain for nodes without internal RAID and inter-node
// fault tolerance k, following the appendix's recursive construction
// (Figures 8, 9 and 10 are the k = 1, 2, 3 instances).
//
// States are labelled by words of length k over {0, N, d}: the non-zero
// prefix is the stack of outstanding failures in arrival order (N = node,
// d = drive), padded with "0". The chain has 2^(k+1)-1 transient states
// plus one absorbing "loss" state. From a state with j outstanding
// failures:
//
//   - a node fails at rate (N-j)·λ_N, a drive at (N-j)·d·λ_d;
//   - when j == k-1, the arriving failure's rebuild is critical: with
//     probability h_α (Section 5.2.2) an uncorrectable read error during
//     that rebuild absorbs directly into loss;
//   - when j == k, any further failure absorbs: rate (N-k)(λ_N+d·λ_d);
//   - the most recent failure repairs at μ_N or μ_d (back to its parent
//     state), matching the appendix's structure.
func NIRChain(in closedform.NIRInputs, k int) *markov.Chain {
	e := nirEmitter{k: k}
	return e.build(in)
}

// nirEmitter is the one home of the NIR rate expressions. fill emits
// every edge of the chain for in, depth first: a state's repair edge,
// then its failure edges, then its N child's subtree, then its d
// child's. States are named by the heap
// index 1<<j | word of their j-letter failure stack (word: the letters
// as bits, first failure most significant, 1 = drive), so a child is
// id<<1 or id<<1|1 and the parent id>>1; nirName renders the labels.
// Edges are emitted even at a rate of exactly zero (e.g. h clamped to 1),
// so the chain's topology is a function of k alone.
type nirEmitter struct {
	emission
	k  int
	in closedform.NIRInputs
	hs []float64 // h_α table for in, indexed by word bits (hAt)
}

// build fills the emitter for in, recording endpoints, and lays the
// chain out.
func (e *nirEmitter) build(in closedform.NIRInputs) *markov.Chain {
	e.record = true
	e.fill(in)
	return e.layout("nir/"+strconv.Itoa(e.k), nirName(e.k), 1)
}

// fill validates in against the emitter's fault tolerance and emits its
// rates. The h_α table is evaluated once per fill into reused storage.
func (e *nirEmitter) fill(in closedform.NIRInputs) {
	k := e.k
	if k < 1 {
		panic(fmt.Sprintf("model: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 || in.R <= k || in.R > in.N || in.D < 1 {
		panic(fmt.Sprintf("model: invalid NIR geometry N=%d R=%d d=%d k=%d", in.N, in.R, in.D, k))
	}
	e.in = in
	e.rates = e.rates[:0]
	e.hs = combinat.AppendHSet(e.hs[:0], in.N, in.R, in.D, in.CHER, k)
	e.emit(0, 0)
}

// emit emits the edges out of the state with j outstanding failures
// whose stack is word, then recurses into its children.
func (e *nirEmitter) emit(j, word int) {
	in := &e.in
	id := 1<<j | word
	n := float64(in.N) - float64(j)
	d := float64(in.D)

	// Repair of the most recent failure.
	if j > 0 {
		mu := in.MuN
		if word&1 == 1 {
			mu = in.MuD
		}
		e.add(id, id>>1, mu)
	}

	if j == e.k {
		// Fully degraded: any further failure loses data.
		e.add(id, lossState, n*(in.LambdaN+d*in.LambdaD))
		return
	}

	nodeRate := n * in.LambdaN
	driveRate := n * d * in.LambdaD
	if j == e.k-1 {
		// The next rebuild is critical: sector errors can lose data.
		hN := hAt(e.hs, word<<1)
		hD := hAt(e.hs, word<<1|1)
		e.add(id, id<<1, nodeRate*(1-hN))
		e.add(id, id<<1|1, driveRate*(1-hD))
		e.add(id, lossState, nodeRate*hN+driveRate*hD)
	} else {
		e.add(id, id<<1, nodeRate)
		e.add(id, id<<1|1, driveRate)
	}
	e.emit(j+1, word<<1)
	e.emit(j+1, word<<1|1)
}

// nirName renders nirEmitter state ids as the paper's fixed-width
// labels, e.g. the stack "N" with k = 3 → "N00"; id 1 (no failures) is
// the initial state. Each label is rendered once, up front.
func nirName(k int) func(id int) string {
	names := make([]string, 2<<k)
	for id := 1; id < len(names); id++ {
		j := bits.Len(uint(id)) - 1
		b := []byte(strings.Repeat("0", k))
		for i := 0; i < j; i++ {
			b[i] = 'N'
			if id>>(j-1-i)&1 == 1 {
				b[i] = 'd'
			}
		}
		names[id] = string(b)
	}
	return func(id int) string {
		if id == lossState {
			return "loss"
		}
		return names[id]
	}
}

// hAt returns h_α from hs = combinat.HSet(N, R, d, C·HER, k) for the
// full-length word α whose letters, most significant bit first, are the
// bits of word (1 = drive failure) — the AllWords order HSet follows, so
// hs[word] is bit-identical to combinat.H of that word
// (TestHSetMatchesWordByWord). The value is clamped to 1 so that extreme
// parameterizations still yield a valid probability.
func hAt(hs []float64, word int) float64 {
	h := hs[word]
	if h > 1 {
		return 1
	}
	return h
}
