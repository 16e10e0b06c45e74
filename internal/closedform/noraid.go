package closedform

import (
	"fmt"

	"repro/internal/combinat"
)

// NIRInputs parameterizes the models for nodes without internal RAID
// (Sections 4.3, 5.2.2 and the appendix).
type NIRInputs struct {
	// N is the node set size, R the redundancy set size, D the drives per
	// node.
	N, R, D int
	// LambdaN and LambdaD are the node and per-drive failure rates.
	LambdaN, LambdaD float64
	// MuN and MuD are the node and drive rebuild rates.
	MuN, MuD float64
	// CHER is C·HER, the expected hard errors per full-drive read.
	CHER float64
}

func (in NIRInputs) validate(k int) {
	if k < 1 {
		panic(fmt.Sprintf("closedform: fault tolerance %d must be >= 1", k))
	}
	if in.N <= k+1 {
		panic(fmt.Sprintf("closedform: node set size %d too small for fault tolerance %d", in.N, k))
	}
	if in.R <= k || in.R > in.N {
		panic(fmt.Sprintf("closedform: redundancy set size %d invalid for fault tolerance %d, N=%d", in.R, k, in.N))
	}
	if in.D < 1 {
		panic(fmt.Sprintf("closedform: drives per node %d must be >= 1", in.D))
	}
	if in.LambdaN <= 0 || in.LambdaD <= 0 || in.MuN <= 0 || in.MuD <= 0 || in.CHER < 0 {
		panic(fmt.Sprintf("closedform: invalid NIR inputs %+v", in))
	}
}

// NIRMTTDL1 returns the printed MTTDL for no internal RAID, node fault
// tolerance 1 (Section 4.3):
//
//	μ_d·μ_N / (N(N-1)(λ_N+dλ_d)(μ_d·λ_N+d·μ_N·λ_d) + N·d·h·μ_d·μ_N(λ_d+λ_N))
//
// with h = (R-1)·C·HER.
func NIRMTTDL1(in NIRInputs) float64 {
	in.validate(1)
	n, d := float64(in.N), float64(in.D)
	h := combinat.BaseH(in.N, in.R, 1, in.CHER)
	term1 := n * (n - 1) * (in.LambdaN + d*in.LambdaD) * (in.MuD*in.LambdaN + d*in.MuN*in.LambdaD)
	term2 := n * d * h * in.MuD * in.MuN * (in.LambdaD + in.LambdaN)
	return in.MuD * in.MuN / (term1 + term2)
}

// NIRMTTDL2 returns the printed MTTDL for fault tolerance 2 (Figure 12).
// The paper's λ_D inside the squared factor is read as the drive failure
// rate (there is no array-failure rate without internal RAID); the
// appendix's general theorem confirms this reading.
func NIRMTTDL2(in NIRInputs) float64 {
	in.validate(2)
	n, r, d := float64(in.N), float64(in.R), float64(in.D)
	lSum := in.MuD*in.LambdaN + d*in.MuN*in.LambdaD
	term1 := n * (n - 1) * (n - 2) * (in.LambdaN + d*in.LambdaD) * lSum * lSum
	term2 := n * (r - 1) * (r - 2) * in.CHER * d * in.MuD * in.MuN *
		(in.LambdaD + in.LambdaN) * (in.MuD*in.LambdaN + in.MuN*in.LambdaD)
	num := in.MuD * in.MuD * in.MuN * in.MuN
	return num / (term1 + term2)
}

// NIRMTTDL3 returns the printed MTTDL for fault tolerance 3 (Figure 12).
func NIRMTTDL3(in NIRInputs) float64 {
	in.validate(3)
	n, r, d := float64(in.N), float64(in.R), float64(in.D)
	lSum := in.MuD*in.LambdaN + d*in.MuN*in.LambdaD
	mix := in.MuD*in.LambdaN + in.MuN*in.LambdaD
	term1 := n * (n - 1) * (n - 2) * (n - 3) * (in.LambdaN + d*in.LambdaD) * lSum * lSum * lSum
	term2 := n * (r - 1) * (r - 2) * (r - 3) * in.CHER * d * in.MuD * in.MuN *
		(in.LambdaD + in.LambdaN) * mix * mix
	num := in.MuD * in.MuD * in.MuD * in.MuN * in.MuN * in.MuN
	return num / (term1 + term2)
}

// LK evaluates the appendix's L_k recursion over an ordered parameter set
// of 2^k values (reverse-lexicographic word order, as produced by
// combinat.HSet):
//
//	L(x, y)   = x·λ_N + y·d·λ_d
//	L_1(H)    = L(H₁, H₂)
//	L_k(H)    = L(μ_d·L_{k-1}(H_first), μ_N·L_{k-1}(H_second)).
//
// It panics if len(h) is not a power of two.
func LK(in NIRInputs, h []float64) float64 {
	n := len(h)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("closedform: LK needs a power-of-two set, got %d", n))
	}
	l := func(x, y float64) float64 {
		return x*in.LambdaN + y*float64(in.D)*in.LambdaD
	}
	if n == 2 {
		return l(h[0], h[1])
	}
	half := n / 2
	return l(in.MuD*LK(in, h[:half]), in.MuN*LK(in, h[half:]))
}

// hsetStackLen sizes the stack buffer the no-internal-RAID closed forms
// evaluate h^(k) into: 2^k values, so fault tolerance up to 6 runs
// without a heap allocation (deeper k spills to the heap).
const hsetStackLen = 1 << 6

// NIRMTTDLGeneral returns the appendix theorem's MTTDL (Figure A1) for
// arbitrary node fault tolerance k:
//
//	MTTDL ≈ (μ_N·μ_d)^k /
//	  (N(N-1)···(N-k+1) · ((N-k)(λ_N+dλ_d)·L(μ_d,μ_N)^k + μ_N·μ_d·L_k(h^(k))))
//
// with h^(k) the generalized sector-error probabilities of Section 5.2.2.
func NIRMTTDLGeneral(in NIRInputs, k int) float64 {
	in.validate(k)
	n, d := float64(in.N), float64(in.D)
	var buf [hsetStackLen]float64
	hset := combinat.AppendHSet(buf[:0], in.N, in.R, in.D, in.CHER, k)
	lMu := in.MuD*in.LambdaN + in.MuN*d*in.LambdaD // L(μ_d, μ_N)
	lMuPowK := 1.0
	num := 1.0
	for i := 0; i < k; i++ {
		lMuPowK *= lMu
		num *= in.MuN * in.MuD
	}
	den := combinat.FallingFactorial(n, k) *
		((n-float64(k))*(in.LambdaN+d*in.LambdaD)*lMuPowK + in.MuN*in.MuD*LK(in, hset))
	return num / den
}
