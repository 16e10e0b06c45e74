package sparse

import (
	"fmt"
	"sort"
)

// Test-only conveniences over the production API: entry lookup, the
// allocating mat-vec and one-shot factorization the oracles compare with.

// At returns the entry at (i, j), 0 if not stored. O(log rowlen).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	p := lo + sort.SearchInts(m.Col[lo:hi], j)
	if p < hi && m.Col[p] == j {
		return m.Val[p]
	}
	return 0
}

// MulVecInto computes dst = m·x and returns dst. dst must not alias x;
// both lengths must match the matrix shape. 0 allocs/op.
func (m *CSR) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecInto lengths dst=%d x=%d vs %dx%d", len(dst), len(x), m.Rows, m.Cols))
	}
	if m.Rows > 0 && len(x) > 0 && &dst[0] == &x[0] {
		panic("sparse: MulVecInto dst must not alias x")
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += m.Val[p] * x[m.Col[p]]
		}
		dst[i] = s
	}
	return dst
}

// N returns the dimension of the analyzed pattern.
func (s *Symbolic) N() int { return s.n }

// Factorize is the convenience path: Analyze + NewNumeric + Refactor.
func Factorize(a *CSR) (*Numeric, error) {
	s, err := Analyze(a)
	if err != nil {
		return nil, err
	}
	nu := NewNumeric(s)
	if err := nu.Refactor(a); err != nil {
		return nil, err
	}
	return nu, nil
}
