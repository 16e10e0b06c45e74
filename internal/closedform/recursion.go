package closedform

import (
	"fmt"

	"repro/internal/combinat"
)

// This file implements the appendix's *exact* recursive solution for the
// no-internal-RAID model — not the Figure A1 approximation, but the
// underlying determinant recursion of the appendix's Lemma:
//
//	MTTDL = M(R) = Num(R)/det(R)
//	Sdet(R^(k))  = det(R_N^(k))·det(R_d^(k))
//	det(R^(k))   = diag·Sdet − r_N·μ_N·Sdet(R_N)·det(R_d)
//	                         − r_d·μ_d·det(R_N)·Sdet(R_d)
//	Num(R^(k))   = Sdet + r_N·Num(R_N)·det(R_d) + r_d·det(R_N)·Num(R_d)
//	det(R_x^(k)) = det(R^(k-1)(N-1, h_x∘h^(k-1))) + μ_x·Sdet(·)   (A.5)
//
// with diag = N(λ_N + d·λ_d) the root state's total exit rate, and the h
// parameters entering only at the innermost level (k = 1), where
// r_N = NλN(1-h_N), r_d = Ndλ_d(1-h_d). The base of the recursion is the
// scalar fully-degraded "model": det = N(λ_N+dλ_d), Sdet = Num = 1.
//
// To avoid overflow/underflow in the raw determinants (products over
// 2^(k+1)-1 states), the recursion is carried in the ratio variables
//
//	ρ = Sdet/det,  ν = Num/det  (ν of the top level IS the MTTDL)
//
// and — crucially — in *cancellation-free* form. The naive combine step
// g = diag − r_N·μ_N·ρ_N − r_d·μ_d·ρ_d subtracts nearly equal quantities
// (the fast repairs almost always return to the root), destroying the
// result for deep k exactly like the dense LU solve. Substituting the
// child transform ρ_x = ρ'/(1+μ_x·ρ') and using diag = r_A + r_N + r_d
// exactly gives
//
//	g = r_A + r_N/(1+μ_N·ρ'_N) + r_d/(1+μ_d·ρ'_d)
//	ρ = 1/g,   ν = (1 + r_N·ν'_N/(1+μ_N·ρ'_N) + r_d·ν'_d/(1+μ_d·ρ'_d))/g
//
// with every term positive: g is the root's *effective absorption-bound
// outflow* (direct absorption plus per-excursion escape mass). The result
// is algebraically identical to the dense LU solution of the same chain
// but numerically stable to arbitrary k, and costs O(2^k) arithmetic.

// NIRMTTDLRecursive returns the exact MTTDL of the no-internal-RAID model
// at fault tolerance k via the appendix's determinant recursion. Unlike
// NIRMTTDLGeneral (the Figure A1 approximation) this makes no
// rate-separation assumption. h parameters above 1 are clamped to 1, as in
// the chain construction.
func NIRMTTDLRecursive(in NIRInputs, k int) float64 {
	in.validate(k)
	var buf [hsetStackLen]float64
	hset := combinat.AppendHSet(buf[:0], in.N, in.R, in.D, in.CHER, k)
	for i, h := range hset {
		if h > 1 {
			hset[i] = 1
		}
	}
	_, nu := nirRecurse(in, k, in.N, hset)
	return nu
}

// nirRecurse returns (ρ, ν) of the level-k model with n nodes remaining
// and the given ordered h-set (2^k values; ignored above level 1).
func nirRecurse(in NIRInputs, k, n int, hset []float64) (rho, nu float64) {
	d := float64(in.D)
	totalFail := float64(n) * (in.LambdaN + d*in.LambdaD)
	if k == 0 {
		// Fully degraded: one more failure absorbs.
		inv := 1 / totalFail
		return inv, inv
	}
	if len(hset) != 1<<k {
		panic(fmt.Sprintf("closedform: level %d expects %d h values, got %d", k, 1<<k, len(hset)))
	}
	half := len(hset) / 2
	rhoN, nuN := nirRecurse(in, k-1, n-1, hset[:half])
	rhoD, nuD := nirRecurse(in, k-1, n-1, hset[half:])

	// Escape factors: probability mass of an excursion into a child block
	// that does NOT return to this root (per A.5's repair fold-in).
	escapeN := 1 / (1 + in.MuN*rhoN)
	escapeD := 1 / (1 + in.MuD*rhoD)

	// Transition rates out of this level's root: failures, plus (at the
	// innermost level) direct absorption via uncorrectable errors.
	rN := float64(n) * in.LambdaN
	rD := float64(n) * d * in.LambdaD
	rA := 0.0
	if k == 1 {
		rA = rN*hset[0] + rD*hset[1]
		rN *= 1 - hset[0]
		rD *= 1 - hset[1]
	}
	g := rA + rN*escapeN + rD*escapeD
	return 1 / g, (1 + rN*nuN*escapeN + rD*nuD*escapeD) / g
}
