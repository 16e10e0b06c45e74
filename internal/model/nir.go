package model

import (
	"fmt"
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
	if k < 1 {
		panic(fmt.Sprintf("model: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 || in.R <= k || in.R > in.N || in.D < 1 {
		panic(fmt.Sprintf("model: invalid NIR geometry N=%d R=%d d=%d k=%d", in.N, in.R, in.D, k))
	}
	label := "nir/" + strconv.Itoa(k)
	if c := acquireChain(label); c != nil {
		c.BeginRefill()
		buildNIR(c, in, k, "")
		c.EndRefill()
		return c
	}
	c := markov.NewChain()
	c.SetLabel(label)
	c.SetInitial(padLabel("", k))
	c.SetAbsorbing("loss")
	buildNIR(c, in, k, "")
	return c.Freeze()
}

// padLabel renders a failure stack as the paper's fixed-width label,
// e.g. "N" with k=3 → "N00".
func padLabel(stack string, k int) string {
	return stack + strings.Repeat("0", k-len(stack))
}

// buildNIR adds the transitions out of the state with the given failure
// stack, then recurses into its children. Edges are added with AddEdge —
// kept even at a rate of exactly zero (e.g. h clamped to 1) — so the
// chain's topology is a function of k alone and refills of a recycled
// chain always land on existing edges. The sink is either the chain
// itself or an edgeRecorder compiling the sweep refill program; both see
// the identical emission order. The h_α table is evaluated once per
// build (see hAt).
func buildNIR(c edgeSink, in closedform.NIRInputs, k int, stack string) {
	b := nirBuilder{c: c, in: in, k: k, hs: combinat.HSet(in.N, in.R, in.D, in.CHER, k)}
	word := 0
	for i := 0; i < len(stack); i++ {
		word <<= 1
		if stack[i] == 'd' {
			word |= 1
		}
	}
	b.emit(stack, word)
}

// nirBuilder carries buildNIR's per-build constants through the
// recursion.
type nirBuilder struct {
	c  edgeSink
	in closedform.NIRInputs
	k  int
	hs []float64
}

// emit is buildNIR for one state; word is the stack's letters as bits
// (see hAt).
func (b *nirBuilder) emit(stack string, word int) {
	in, k := b.in, b.k
	j := len(stack)
	label := padLabel(stack, k)
	n := float64(in.N) - float64(j)
	d := float64(in.D)

	// Repair of the most recent failure.
	if j > 0 {
		mu := in.MuN
		if stack[j-1] == 'd' {
			mu = in.MuD
		}
		b.c.AddEdge(label, padLabel(stack[:j-1], k), mu)
	}

	if j == k {
		// Fully degraded: any further failure loses data.
		b.c.AddEdge(label, "loss", n*(in.LambdaN+d*in.LambdaD))
		return
	}

	nodeRate := n * in.LambdaN
	driveRate := n * d * in.LambdaD
	if j == k-1 {
		// The next rebuild is critical: sector errors can lose data.
		hN := hAt(b.hs, word<<1)
		hD := hAt(b.hs, word<<1|1)
		b.c.AddEdge(label, padLabel(stack+"N", k), nodeRate*(1-hN))
		b.c.AddEdge(label, padLabel(stack+"d", k), driveRate*(1-hD))
		b.c.AddEdge(label, "loss", nodeRate*hN+driveRate*hD)
	} else {
		b.c.AddEdge(label, padLabel(stack+"N", k), nodeRate)
		b.c.AddEdge(label, padLabel(stack+"d", k), driveRate)
	}
	b.emit(stack+"N", word<<1)
	b.emit(stack+"d", word<<1|1)
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
