package linalg

import "fmt"

// Allocation-free variants of the factorize/solve path. Absorption
// analyses inside sweeps and Monte Carlo estimators factorize and solve
// thousands of small matrices of identical shape; these variants let a
// caller own the factorization storage and scratch vectors and reuse
// them across solves, so the steady-state hot path performs no heap
// allocation at all.

// FactorizeInto computes the LU factorization of a square matrix a,
// reusing f's internal storage when it has capacity. f must be non-nil;
// its previous contents are overwritten (the zero LU is a valid empty
// target). Passing f's own matrix (from a previous factorization) as a
// factorizes in place. Results are bit-identical to Factorize.
func FactorizeInto(f *LU, a *Matrix) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("linalg: FactorizeInto requires a square matrix, got %dx%d", a.rows, a.cols))
	}
	n := a.rows
	if f.lu == nil || cap(f.lu.data) < n*n {
		f.lu = New(n, n)
	} else {
		f.lu.rows, f.lu.cols = n, n
		f.lu.data = f.lu.data[:n*n]
	}
	if f.lu != a {
		copy(f.lu.data, a.data)
	}
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	} else {
		f.piv = f.piv[:n]
	}
	return f.eliminate()
}

// SolveInto solves A·x = b, writing x into dst and returning it. It is
// Solve without the allocation: identical arithmetic, caller-owned
// output. dst must not alias b (the permutation step reads b while
// writing dst); both must have length N().
func (f *LU) SolveInto(dst, b []float64) []float64 {
	n := f.N()
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: SolveInto lengths dst=%d b=%d vs dimension %d", len(dst), len(b), n))
	}
	if n > 0 && &dst[0] == &b[0] {
		panic("linalg: SolveInto dst must not alias b")
	}
	x := dst
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

// SolveTransposeInto solves Aᵀ·x = b, writing x into dst and returning
// it. work is caller-owned scratch for the intermediate substitution
// vector (the final permutation is out of place, so the variant needs
// one extra buffer). dst may alias b — b is consumed before dst is
// written — but dst must not alias work. All three must have length
// N(). Results are bit-identical to SolveTranspose.
func (f *LU) SolveTransposeInto(dst, b, work []float64) []float64 {
	n := f.N()
	if len(b) != n || len(dst) != n || len(work) != n {
		panic(fmt.Sprintf("linalg: SolveTransposeInto lengths dst=%d b=%d work=%d vs dimension %d", len(dst), len(b), len(work), n))
	}
	if n > 0 && &dst[0] == &work[0] {
		panic("linalg: SolveTransposeInto dst must not alias work")
	}
	y := work
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
	for i := 0; i < n; i++ {
		dst[f.piv[i]] = y[i]
	}
	return dst
}
