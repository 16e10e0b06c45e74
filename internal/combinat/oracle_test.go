package combinat

import "fmt"

// Test-only: the binomial coefficient, and the word list and h^(k) table
// that AppendHSet and the closed forms are checked against.

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
