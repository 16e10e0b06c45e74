package linalg

import (
	"fmt"
	"math"
)

// The allocating dense API below is the reference the production kernels
// (FactorizeInto, SolveInto, SolveTransposeInto and the sparse package's
// LU) are checked against, plus the matrix and vector helpers the tests
// build and compare with. No production path needs it.

// Factorize computes the LU factorization of a square matrix using Doolittle
// elimination with partial pivoting. It returns ErrSingular if a pivot is
// exactly zero (the factorization of a nearly singular matrix succeeds).
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

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	n := f.N()
	det := float64(f.sign)
	for i := 0; i < n; i++ {
		det *= f.lu.data[i*n+i]
	}
	return det
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

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
// It panics if the rows are ragged.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(row)))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Scale multiplies every element by s, in place, and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.data {
		m.data[i] *= s
	}
	return m
}

// AddMatrix returns m + other as a new matrix.
// It panics if the dimensions differ.
func (m *Matrix) AddMatrix(other *Matrix) *Matrix {
	m.sameShape(other)
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] += v
	}
	return out
}

// SubMatrix returns m - other as a new matrix.
// It panics if the dimensions differ.
func (m *Matrix) SubMatrix(other *Matrix) *Matrix {
	m.sameShape(other)
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] -= v
	}
	return out
}

func (m *Matrix) sameShape(other *Matrix) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
}

// Mul returns the matrix product m·other as a new matrix.
// It panics if m.Cols() != other.Rows().
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("linalg: product shape mismatch %dx%d · %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := New(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*other.cols : (i+1)*other.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			ok := other.data[k*other.cols : (k+1)*other.cols]
			for j, okj := range ok {
				oi[j] += mik * okj
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
// It panics if len(x) != m.Cols().
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec length %d vs %d cols", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// VecMul returns the vector-matrix product xᵀ·m.
// It panics if len(x) != m.Rows().
func (m *Matrix) VecMul(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("linalg: VecMul length %d vs %d rows", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += xi * v
		}
	}
	return out
}

// Transpose returns the transpose of m as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// MaxNorm returns the maximum absolute element value.
func (m *Matrix) MaxNorm() float64 {
	var max float64
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// ApproxEqual reports whether every element of m and other differs by at
// most tol. Matrices with different shapes are never equal.
func (m *Matrix) ApproxEqual(other *Matrix, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-other.data[i]) > tol {
			return false
		}
	}
	return true
}

// Dot returns the inner product of x and y.
// It panics if the lengths differ.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i, xi := range x {
		s += xi * y[i]
	}
	return s
}

// Unit returns a length-n vector with a one at index i.
func Unit(n, i int) []float64 {
	out := make([]float64, n)
	out[i] = 1
	return out
}

// AXPY computes y ← a·x + y in place and returns y.
// It panics if the lengths differ.
func AXPY(a float64, x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(x), len(y)))
	}
	for i, xi := range x {
		y[i] += a * xi
	}
	return y
}

// ScaleVec multiplies every element of x by a, in place, and returns x.
func ScaleVec(a float64, x []float64) []float64 {
	for i := range x {
		x[i] *= a
	}
	return x
}

// MaxAbs returns the largest absolute value in x, or 0 for an empty slice.
func MaxAbs(x []float64) float64 {
	var max float64
	for _, v := range x {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Norm1 returns the 1-norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// ApproxEqualVec reports whether |x[i]-y[i]| <= tol for all i.
// Vectors of different lengths are never equal.
func ApproxEqualVec(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i, xi := range x {
		if math.Abs(xi-y[i]) > tol {
			return false
		}
	}
	return true
}

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] += v
}
