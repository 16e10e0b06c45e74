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

// eliminate runs Doolittle elimination with partial pivoting in place on
// f.lu, filling f.piv and f.sign. It is the kernel of FactorizeInto (and
// of the tests' allocating Factorize).
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
