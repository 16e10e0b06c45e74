package model

import (
	"fmt"
	"math"
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
	c, _, _ := e.build(in)
	return c
}

// nirEmitter is the one home of the NIR rate expressions. The chain's
// 11·2^(k-1)−4 edges (700 at k = 7) fall into only 5k+1 rate classes,
// the edges of one class sharing one value, because every state at one
// failure depth shares its failure rates, a repair rate depends only on
// the stack's last letter, and a critical state's h_α only on the
// number of drive letters in its word. fill evaluates
// the classes for one cell; walk, run once per topology, emits every
// edge with its class, depth first: a state's repair edge, then its
// failure edges, then its N child's subtree, then its d child's. States
// are named by the heap index 1<<j | word of their j-letter failure
// stack (word: the letters as bits, first failure most significant,
// 1 = drive), so a child is id<<1 or id<<1|1 and the parent id>>1;
// nirName renders the labels. Edges are emitted even at a rate of
// exactly zero (e.g. h clamped to 1), so the chain's topology is a
// function of k alone.
//
// Class layout for fault tolerance k:
//
//	0, 1                     repair μ_N, μ_d
//	2+2j, 3+2j               node, drive failure at depth j < k-1
//	2k+3p, 2k+3p+1, 2k+3p+2  node child, drive child, loss at depth k-1
//	                         from a word with p drive letters, p < k
//	5k                       loss at depth k
type nirEmitter struct {
	k int
	// hs[p] is h_α, clamped to 1, for the full-length words with p drive
	// letters; it is kept while hKey, the inputs it depends on, stays
	// bit-equal.
	hs   []float64
	hKey hKey
}

// hKey is the inputs h_α depends on besides k, C·HER by its bits.
type hKey struct {
	n, r, d int
	cher    uint64
}

// fill validates in against the emitter's fault tolerance and appends
// its class values to v[:0]. Each class keeps the float expression of
// the edges it stands for, so an edge's rate is bit-identical to
// evaluating that edge on its own.
func (e *nirEmitter) fill(v []float64, in closedform.NIRInputs) []float64 {
	k := e.k
	if k < 1 {
		panic(fmt.Sprintf("model: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 || in.R <= k || in.R > in.N || in.D < 1 {
		panic(fmt.Sprintf("model: invalid NIR geometry N=%d R=%d d=%d k=%d", in.N, in.R, in.D, k))
	}
	hs := e.hAlpha(&in)
	d := float64(in.D)
	v = append(v[:0], in.MuN, in.MuD)
	for j := 0; j < k-1; j++ {
		n := float64(in.N) - float64(j)
		v = append(v, n*in.LambdaN, n*d*in.LambdaD)
	}
	// The next rebuild is critical: sector errors can lose data.
	n := float64(in.N) - float64(k-1)
	nodeRate := n * in.LambdaN
	driveRate := n * d * in.LambdaD
	for p := 0; p < k; p++ {
		hN, hD := hs[p], hs[p+1]
		v = append(v, nodeRate*(1-hN), driveRate*(1-hD), nodeRate*hN+driveRate*hD)
	}
	// Fully degraded: any further failure loses data.
	n = float64(in.N) - float64(k)
	return append(v, n*(in.LambdaN+d*in.LambdaD))
}

// hAlpha returns h_α by drive-letter count for in, re-evaluating it only
// when N, R, d or C·HER differ from the previous call's by a bit. Each
// value is combinat.AppendHSet's entry for its words (AppendHByDrives), clamped
// to 1 so that extreme parameterizations still yield a valid
// probability.
func (e *nirEmitter) hAlpha(in *closedform.NIRInputs) []float64 {
	key := hKey{in.N, in.R, in.D, math.Float64bits(in.CHER)}
	if len(e.hs) == e.k+1 && key == e.hKey {
		return e.hs
	}
	e.hs = combinat.AppendHByDrives(e.hs[:0], in.N, in.R, in.D, in.CHER, e.k)
	for p, h := range e.hs {
		if h > 1 {
			e.hs[p] = 1
		}
	}
	e.hKey = key
	return e.hs
}

// build evaluates in's classes and lays the chain out from a fresh walk.
func (e *nirEmitter) build(in closedform.NIRInputs) (*markov.Chain, *topology, []float64) {
	vals := e.fill(nil, in)
	t := &topology{}
	e.walk(t, 0, 0)
	return t.layout("nir/"+strconv.Itoa(e.k), nirName(e.k), 1, vals), t, vals
}

// walk records the edges out of the state with j outstanding failures
// whose stack is word, with their classes, then recurses into its
// children.
func (e *nirEmitter) walk(t *topology, j, word int) {
	id := 1<<j | word
	if j > 0 {
		t.add(id, id>>1, word&1) // repair of the most recent failure
	}
	if j == e.k {
		t.add(id, lossState, 5*e.k)
		return
	}
	if j == e.k-1 {
		c := 2*e.k + 3*bits.OnesCount(uint(word))
		t.add(id, id<<1, c)
		t.add(id, id<<1|1, c+1)
		t.add(id, lossState, c+2)
	} else {
		t.add(id, id<<1, 2+2*j)
		t.add(id, id<<1|1, 3+2*j)
	}
	e.walk(t, j+1, word<<1)
	e.walk(t, j+1, word<<1|1)
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
