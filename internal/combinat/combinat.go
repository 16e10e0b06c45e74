// Package combinat implements the combinatorial machinery of the paper's
// Section 5.2 ("Scope of Sector Error"): binomial coefficients, falling
// factorials, the critical-redundancy-set fractions k_j for nodes with
// internal RAID, and the generalized h_α uncorrectable-error probabilities
// for nodes without internal RAID (α a word over {N, d}).
package combinat

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Binomial returns C(n, k) as a float64. It returns 0 when k < 0 or k > n,
// matching the combinatorial convention used by the paper's redundancy-set
// counting. It panics if n < 0.
func Binomial(n, k int) float64 {
	if n < 0 {
		panic(fmt.Sprintf("combinat: Binomial with negative n = %d", n))
	}
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

// FallingFactorial returns n·(n-1)·…·(n-k+1), the number of ordered
// k-selections from n items. FallingFactorial(n, 0) == 1.
// It panics if k < 0.
func FallingFactorial(n float64, k int) float64 {
	if k < 0 {
		panic(fmt.Sprintf("combinat: FallingFactorial with negative k = %d", k))
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out *= n - float64(i)
	}
	return out
}

// CriticalFraction returns k_j, the fraction of an already-failed node's
// redundancy sets that are critical once j failures are outstanding, for
// nodes with internal RAID (Section 5.2.1):
//
//	k_j = C(N-j, R-j) / C(N-1, R-1) = ∏_{i=1}^{j-1} (R-i)/(N-i)
//
// so k_1 = 1 (a single-fault-tolerant arrangement has the entire node
// critical), k_2 = (R-1)/(N-1) and k_3 = (R-1)(R-2)/((N-1)(N-2)).
// It panics unless 1 <= j <= R <= N.
func CriticalFraction(n, r, j int) float64 {
	if j < 1 || r < j || n < r {
		panic(fmt.Sprintf("combinat: CriticalFraction requires 1 <= j <= R <= N, got N=%d R=%d j=%d", n, r, j))
	}
	out := 1.0
	for i := 1; i < j; i++ {
		out *= float64(r-i) / float64(n-i)
	}
	return out
}

// BaseH returns the base uncorrectable-error probability h for the
// no-internal-RAID model at fault tolerance k (Section 5.2.2):
//
//	h = [∏_{i=1}^{k} (R-i)] / [∏_{i=1}^{k-1} (N-i)] · C·HER
//
// where cher = C·HER is the per-drive probability of a hard error over a
// full-drive read. Special cases: k=1 → (R-1)·C·HER;
// k=2 → (R-1)(R-2)/(N-1)·C·HER; k=3 → (R-1)(R-2)(R-3)/((N-1)(N-2))·C·HER.
// It panics unless 1 <= k < R <= N.
func BaseH(n, r, k int, cher float64) float64 {
	if k < 1 || r <= k || n < r {
		panic(fmt.Sprintf("combinat: BaseH requires 1 <= k < R <= N, got N=%d R=%d k=%d", n, r, k))
	}
	num := 1.0
	for i := 1; i <= k; i++ {
		num *= float64(r - i)
	}
	den := 1.0
	for i := 1; i <= k-1; i++ {
		den *= float64(n - i)
	}
	return num / den * cher
}

// FailureKind labels one letter of a failure word: a whole-node failure or
// a single-drive failure.
type FailureKind byte

const (
	// NodeFailure is the "N" letter of the appendix's state labels.
	NodeFailure FailureKind = 'N'
	// DriveFailure is the "d" letter of the appendix's state labels.
	DriveFailure FailureKind = 'd'
)

// Word is a sequence of outstanding failures, most recent last. It mirrors
// the appendix's state labels restricted to the non-"0" letters.
type Word []FailureKind

// String renders the word in the paper's notation, e.g. "Nd" for a node
// failure followed by a drive failure.
func (w Word) String() string {
	var b strings.Builder
	for _, k := range w {
		b.WriteByte(byte(k))
	}
	return b.String()
}

// CountDrives returns the number of drive-failure letters in the word.
func (w Word) CountDrives() int {
	c := 0
	for _, k := range w {
		if k == DriveFailure {
			c++
		}
	}
	return c
}

// H returns h_α for failure word α of length k (Section 5.2.2 generalized):
//
//	h_α = h · d^(1 - #d(α))
//
// where h = BaseH(N, R, k, C·HER), d is drives per node and #d(α) is the
// number of drive-failure letters. Examples (k=2): h_NN = d·h,
// h_Nd = h_dN = h, h_dd = h/d.
func H(n, r, d int, cher float64, alpha Word) float64 {
	if len(alpha) == 0 {
		panic("combinat: H of empty failure word")
	}
	h := BaseH(n, r, len(alpha), cher)
	return h * math.Pow(float64(d), float64(1-alpha.CountDrives()))
}

// AllWords enumerates {N,d}^k in the appendix's reverse-lexicographic order
// (N before d), i.e. the order produced by the recursive dot operation
// h^(k) = h_N ∘ h^(k-1) ∪ h_d ∘ h^(k-1).
func AllWords(k int) []Word {
	if k < 0 {
		panic(fmt.Sprintf("combinat: AllWords with negative k = %d", k))
	}
	if k == 0 {
		return []Word{{}}
	}
	sub := AllWords(k - 1)
	out := make([]Word, 0, 2*len(sub))
	for _, first := range []FailureKind{NodeFailure, DriveFailure} {
		for _, w := range sub {
			word := make(Word, 0, k)
			word = append(word, first)
			word = append(word, w...)
			out = append(out, word)
		}
	}
	return out
}

// HSet returns the ordered parameter set h^(k) = {h_α : α ∈ {N,d}^k} in the
// order of AllWords(k), as consumed by the appendix's L_k recursion. It is
// AppendHSet into a fresh slice.
func HSet(n, r, d int, cher float64, k int) []float64 {
	return AppendHSet(nil, n, r, d, cher, k)
}

// AppendHSet appends h^(k) (see HSet) to dst and returns the extended
// slice, so a caller holding a large enough buffer — the closed forms
// pass one on their stack — evaluates it without allocating.
//
// It exploits the order's structure instead of materializing the words:
// AllWords(k)[i] has letter pattern given by the bits of i (most
// significant first, 1 = drive failure), so #d(α) = popcount(i) and
// h_α = BaseH · d^(1-popcount(i)) — one BaseH and k+1 powers of d total
// instead of per-word recomputation (the design-space optimizer
// evaluates tens of thousands of these per search). Every float is
// produced by the same operations as the word-by-word path, so results
// are bit-identical (TestHSetMatchesWordByWord).
func AppendHSet(dst []float64, n, r, d int, cher float64, k int) []float64 {
	if k < 0 {
		panic(fmt.Sprintf("combinat: HSet with negative k = %d", k))
	}
	var buf [16]float64
	byDrives := AppendHByDrives(buf[:0], n, r, d, cher, k)
	for i := 0; i < 1<<k; i++ {
		dst = append(dst, byDrives[bits.OnesCount(uint(i))])
	}
	return dst
}

// AppendHByDrives appends the k+1 distinct values of h^(k) to dst, the
// p-th being h_α = BaseH · d^(1-p) for every word α of length k with p
// drive letters, and returns the extended slice. h_α depends on α only
// through #d(α), so AppendHSet's entry i is the popcount(i)-th of these,
// bit for bit. It panics unless 1 <= k < R <= N.
func AppendHByDrives(dst []float64, n, r, d int, cher float64, k int) []float64 {
	h := BaseH(n, r, k, cher)
	for p := 0; p <= k; p++ {
		dst = append(dst, h*math.Pow(float64(d), float64(1-p)))
	}
	return dst
}

// RedundancySets returns C(N, R), the total number of redundancy sets of
// size R in a node set of size N (Section 4.1).
func RedundancySets(n, r int) float64 { return Binomial(n, r) }

// SetsPerNode returns C(N-1, R-1), the number of redundancy sets each node
// participates in (Section 5.2.1).
func SetsPerNode(n, r int) float64 { return Binomial(n-1, r-1) }
