// Package linalg provides the dense linear algebra needed to solve
// continuous-time Markov chain models: matrices and an allocation-free LU
// factorization with partial pivoting and its solves.
//
// The package is deliberately small and self-contained (stdlib only). It is
// not a general-purpose BLAS; it implements exactly what the reliability
// models require, with an emphasis on predictable numerical behaviour for
// the small (dimension ≤ a few hundred) systems that arise from the paper's
// chains, whose absorption matrices have dimension 2^(k+1)-1.
package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New and Set to
// construct matrices with content. Methods that take another matrix or a
// vector panic if the dimensions are incompatible: dimension mismatches are
// programmer errors, not runtime conditions.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-filled matrix with the given dimensions.
// It panics if either dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.boundsCheck(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.boundsCheck(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) boundsCheck(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Reshape resizes m to rows×cols and zero-fills it, reusing the backing
// storage when it has capacity. It returns m. Buffers held across
// repeated model builds (e.g. absorption matrices in a sweep) can be
// recycled this way without reallocating.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	n := rows * cols
	if cap(m.data) < n {
		m.data = make([]float64, n)
	} else {
		m.data = m.data[:n]
		for i := range m.data {
			m.data[i] = 0
		}
	}
	m.rows, m.cols = rows, cols
	return m
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.data[i*m.cols+j])
		}
		b.WriteString("]\n")
	}
	return b.String()
}
