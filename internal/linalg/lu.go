package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (effectively) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// LU holds an LU factorization with partial pivoting: P·A = L·U where L is
// unit lower triangular and U is upper triangular, both packed into lu.
type LU struct {
	lu   *Matrix
	piv  []int // row permutation: piv[i] is the original row in position i
	sign int   // +1 or -1, parity of the permutation (for determinants)
}

// Factorize computes the LU factorization of a square matrix using Doolittle
// elimination with partial pivoting. It returns ErrSingular if a pivot is
// exactly zero (the factorization of a nearly singular matrix succeeds; the
// caller can inspect ConditionEstimate for trouble).
func Factorize(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("linalg: Factorize requires a square matrix, got %dx%d", a.rows, a.cols))
	}
	f := &LU{lu: a.Clone(), piv: make([]int, a.rows)}
	if err := f.eliminate(); err != nil {
		return nil, err
	}
	return f, nil
}

// eliminate runs Doolittle elimination with partial pivoting in place on
// f.lu, filling f.piv and f.sign. It is the shared kernel of Factorize
// and FactorizeInto.
func (f *LU) eliminate() error {
	lu, piv := f.lu, f.piv
	n := lu.rows
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Find the pivot row.
		p := k
		max := math.Abs(lu.data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.data[i*n+k]); a > max {
				max = a
				p = i
			}
		}
		if max == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rowP := lu.data[p*n : (p+1)*n]
			rowK := lu.data[k*n : (k+1)*n]
			for j := 0; j < n; j++ {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.data[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu.data[i*n+k] / pivot
			lu.data[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := lu.data[i*n : (i+1)*n]
			rowK := lu.data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	f.sign = sign
	return nil
}

// N returns the dimension of the factorized matrix.
func (f *LU) N() int { return f.lu.rows }

// Solve solves A·x = b for x. It panics if len(b) != N().
func (f *LU) Solve(b []float64) []float64 {
	n := f.N()
	if len(b) != n {
		panic(fmt.Sprintf("linalg: Solve length %d vs dimension %d", len(b), n))
	}
	x := make([]float64, n)
	// Apply permutation: x = P·b.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.data[i*n : i*n+i]
		s := x[i]
		for j, l := range row {
			s -= l * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveTranspose solves Aᵀ·x = b for x, using the same factorization:
// Aᵀ = Uᵀ·Lᵀ·P, so solve Uᵀ·y = b, Lᵀ·z = y, x = Pᵀ·z.
func (f *LU) SolveTranspose(b []float64) []float64 {
	n := f.N()
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveTranspose length %d vs dimension %d", len(b), n))
	}
	y := make([]float64, n)
	copy(y, b)
	// Forward substitution with Uᵀ (lower triangular with U's diagonal).
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < i; j++ {
			s += f.lu.data[j*n+i] * y[j]
		}
		y[i] = (y[i] - s) / f.lu.data[i*n+i]
	}
	// Back substitution with Lᵀ (unit upper triangular).
	for i := n - 2; i >= 0; i-- {
		var s float64
		for j := i + 1; j < n; j++ {
			s += f.lu.data[j*n+i] * y[j]
		}
		y[i] -= s
	}
	// Undo permutation: x[piv[i]] = y[i].
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[f.piv[i]] = y[i]
	}
	return x
}

// SolveMatrix solves A·X = B column-by-column.
func (f *LU) SolveMatrix(b *Matrix) *Matrix {
	if b.rows != f.N() {
		panic(fmt.Sprintf("linalg: SolveMatrix rows %d vs dimension %d", b.rows, f.N()))
	}
	out := New(b.rows, b.cols)
	for j := 0; j < b.cols; j++ {
		col := f.Solve(b.Col(j))
		for i, v := range col {
			out.data[i*out.cols+j] = v
		}
	}
	return out
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	n := f.N()
	det := float64(f.sign)
	for i := 0; i < n; i++ {
		det *= f.lu.data[i*n+i]
	}
	return det
}

// Inverse returns A⁻¹ as a new matrix.
func (f *LU) Inverse() *Matrix {
	return f.SolveMatrix(Identity(f.N()))
}

// ConditionEstimate returns a cheap lower bound on the infinity-norm
// condition number: ‖A‖∞ · max|1/u_ii|, useful to flag ill-conditioned
// absorption matrices in tests.
func (f *LU) ConditionEstimate(a *Matrix) float64 {
	n := f.N()
	minPivot := math.Inf(1)
	for i := 0; i < n; i++ {
		if p := math.Abs(f.lu.data[i*n+i]); p < minPivot {
			minPivot = p
		}
	}
	if minPivot == 0 {
		return math.Inf(1)
	}
	return a.InfNorm() / minPivot
}

// Solve is a convenience wrapper: factorize a and solve a·x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Det is a convenience wrapper returning det(a), or 0 for a singular matrix.
func Det(a *Matrix) float64 {
	f, err := Factorize(a)
	if err != nil {
		return 0
	}
	return f.Det()
}

// Inverse is a convenience wrapper returning a⁻¹.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse(), nil
}
