// Package sparse provides compressed-sparse-row matrices and a
// deterministic sparse LU factorization with a symbolic/numeric split,
// sized for the absorption matrices of reliability Markov chains: each
// transient state has only a handful of outgoing edges (failure,
// rebuild, restripe), so R = -Q_B is overwhelmingly sparse and direct
// sparse elimination beats the dense O(n³) path by orders of magnitude
// once chains outgrow the paper's k ≤ 3.
//
// The factorization follows the classic SuiteSparse-style split:
//
//   - Analyze computes a fill-reducing ordering and the exact nonzero
//     pattern of L and U once, from the pattern alone, and compiles the
//     numeric elimination into a program over one factor slot array
//     (Symbolic);
//   - Refactor scatters a matrix of that exact pattern into the factor
//     slots and replays the program, with no allocation and no
//     permutation lookups, so sweeps that solve thousands of chains
//     sharing one topology pay the symbolic cost once and a
//     near-optimal numeric cost per grid cell;
//   - SolveInto / SolveTransposeInto mirror the dense linalg *Into API
//     (same aliasing rules, caller-owned outputs, 0 allocs/op).
//
// Pivoting is static: elimination happens along the precomputed
// symmetric ordering with no numerical row swaps. That is the standard
// trade for pattern reuse and is safe here because absorption matrices
// are row diagonally dominant (the diagonal is the state's total exit
// rate, which bounds the off-diagonal row sum), bounding element growth.
// Callers with arbitrary matrices should fall back to the dense partial
// pivoting path when Refactor reports a (near-)singular pivot.
package sparse

import (
	"fmt"
	"sort"

	"repro/internal/linalg"
)

// CSR is a compressed-sparse-row matrix. Fields are exported so hot
// paths can assemble a matrix into reused caller-owned slices without
// copies; Valid checks the invariants when the provenance is unclear.
//
// Invariants: len(RowPtr) == Rows+1, RowPtr[0] == 0, RowPtr non-
// decreasing, RowPtr[Rows] == len(Col) == len(Val), and column indices
// strictly ascending within each row (so edge iteration order — and
// therefore every accumulated sum — is reproducible).
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	Col        []int
	Val        []float64
}

// Valid reports the first violated CSR invariant, or nil.
func (m *CSR) Valid() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimension %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if nnz := m.RowPtr[m.Rows]; nnz != len(m.Col) || nnz != len(m.Val) {
		return fmt.Errorf("sparse: RowPtr[%d]=%d vs %d cols, %d vals", m.Rows, nnz, len(m.Col), len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr decreases at row %d", i)
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if j := m.Col[p]; j < 0 || j >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if p > m.RowPtr[i] && m.Col[p-1] >= m.Col[p] {
				return fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
		}
	}
	return nil
}

// NNZ returns the number of stored entries (including explicit zeros).
func (m *CSR) NNZ() int { return m.RowPtr[m.Rows] }

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

// Density returns NNZ / (Rows·Cols), or 0 for an empty matrix.
func (m *CSR) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// FromDense converts a dense matrix, storing entries that are exactly
// nonzero.
func FromDense(a *linalg.Matrix) *CSR {
	m := &CSR{Rows: a.Rows(), Cols: a.Cols(), RowPtr: make([]int, a.Rows()+1)}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if v := a.At(i, j); v != 0 {
				m.Col = append(m.Col, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
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

// VecMulInto computes dst = xᵀ·m and returns dst. dst must not alias x.
func (m *CSR) VecMulInto(dst, x []float64) []float64 {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("sparse: VecMulInto lengths dst=%d x=%d vs %dx%d", len(dst), len(x), m.Rows, m.Cols))
	}
	if m.Cols > 0 && len(x) > 0 && &dst[0] == &x[0] {
		panic("sparse: VecMulInto dst must not alias x")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			dst[m.Col[p]] += xi * m.Val[p]
		}
	}
	return dst
}
