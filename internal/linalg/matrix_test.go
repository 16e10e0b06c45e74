package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Errorf("I(4)[%d,%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %dx%d, want 3x2", m.Rows(), m.Cols())
	}
	if got := m.At(2, 1); got != 6 {
		t.Errorf("At(2,1) = %v, want 6", got)
	}
	row := m.Row(1)
	if row[0] != 3 || row[1] != 4 {
		t.Errorf("Row(1) = %v, want [3 4]", row)
	}
	col := m.Col(0)
	if col[0] != 1 || col[1] != 3 || col[2] != 5 {
		t.Errorf("Col(0) = %v, want [1 3 5]", col)
	}
	// Row and Col return copies, not views.
	row[0] = 99
	col[0] = 99
	if m.At(1, 0) != 3 || m.At(0, 0) != 1 {
		t.Error("Row/Col returned views, want copies")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("dims = %dx%d, want 0x0", m.Rows(), m.Cols())
	}
}

func TestSetAddAt(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Errorf("after Set+Add, At(0,1) = %v, want 7.5", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := a.AddMatrix(b)
	if sum.At(1, 1) != 44 {
		t.Errorf("AddMatrix (1,1) = %v, want 44", sum.At(1, 1))
	}
	diff := b.SubMatrix(a)
	if diff.At(0, 0) != 9 {
		t.Errorf("SubMatrix (0,0) = %v, want 9", diff.At(0, 0))
	}
	s := a.Clone().Scale(2)
	if s.At(1, 0) != 6 {
		t.Errorf("Scale (1,0) = %v, want 6", s.At(1, 0))
	}
	// Originals untouched by AddMatrix/SubMatrix.
	if a.At(0, 0) != 1 || b.At(0, 0) != 10 {
		t.Error("AddMatrix/SubMatrix mutated operands")
	}
}

func TestAddMatrixShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	New(2, 2).AddMatrix(New(2, 3))
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	p := a.Mul(b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !p.ApproxEqual(want, 0) {
		t.Errorf("Mul =\n%v want\n%v", p, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if !a.Mul(Identity(2)).ApproxEqual(a, 0) {
		t.Error("A·I != A")
	}
	if !Identity(2).Mul(a).ApproxEqual(a, 0) {
		t.Error("I·A != A")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul shape mismatch did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestMulVecAndVecMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	mv := a.MulVec([]float64{1, 1})
	if mv[0] != 3 || mv[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", mv)
	}
	vm := a.VecMul([]float64{1, 1})
	if vm[0] != 4 || vm[1] != 6 {
		t.Errorf("VecMul = %v, want [4 6]", vm)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("transpose dims = %dx%d, want 3x2", at.Rows(), at.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 1+rng.Intn(6), 1+rng.Intn(6))
		return a.Transpose().Transpose().ApproxEqual(a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {-3, 0.5}})
	if got := a.MaxNorm(); got != 3 {
		t.Errorf("MaxNorm = %v, want 3", got)
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.0001, 2}})
	if !a.ApproxEqual(b, 1e-3) {
		t.Error("ApproxEqual(tol=1e-3) = false, want true")
	}
	if a.ApproxEqual(b, 1e-6) {
		t.Error("ApproxEqual(tol=1e-6) = true, want false")
	}
	if a.ApproxEqual(New(2, 1), 1) {
		t.Error("matrices of different shape compared equal")
	}
}

func TestStringContainsElements(t *testing.T) {
	s := FromRows([][]float64{{1.5, 2}}).String()
	if s == "" {
		t.Fatal("String() returned empty")
	}
}

// randomMatrix builds an rxc matrix of values in [-5, 5).
func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.Float64()*10-5)
		}
	}
	return m
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		lhs := a.Mul(b).Transpose()
		rhs := b.Transpose().Mul(a.Transpose())
		return lhs.ApproxEqual(rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		d := randomMatrix(rng, k, c)
		lhs := a.Mul(b.AddMatrix(d))
		rhs := a.Mul(b).AddMatrix(a.Mul(d))
		return lhs.ApproxEqual(rhs, 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(6), 1+rng.Intn(6)
		a := randomMatrix(rng, r, c)
		x := make([]float64, c)
		for i := range x {
			x[i] = rng.Float64()*4 - 2
		}
		xm := New(c, 1)
		for i, v := range x {
			xm.Set(i, 0, v)
		}
		got := a.MulVec(x)
		want := a.Mul(xm)
		for i := range got {
			if math.Abs(got[i]-want.At(i, 0)) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
