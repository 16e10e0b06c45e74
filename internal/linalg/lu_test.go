package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFactorizeSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	b := []float64{5, -2, 9}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{1, 1, 2}
	if !ApproxEqualVec(x, want, 1e-12) {
		t.Errorf("Solve = %v, want %v", x, want)
	}
}

func TestSolveResidualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		a := randomDiagonallyDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %g at %d", trial, r[i]-b[i], i)
			}
		}
	}
}

func TestSolveTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(20)
		a := randomDiagonallyDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		f, err := Factorize(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x := f.SolveTranspose(b)
		r := a.Transpose().MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d: transpose residual %g at %d", trial, r[i]-b[i], i)
			}
		}
	}
}

func TestDetKnown(t *testing.T) {
	cases := []struct {
		m    *Matrix
		want float64
	}{
		{Identity(3), 1},
		{FromRows([][]float64{{2, 0}, {0, 3}}), 6},
		{FromRows([][]float64{{1, 2}, {3, 4}}), -2},
		{FromRows([][]float64{{0, 1}, {1, 0}}), -1}, // forces a pivot swap
		{FromRows([][]float64{
			{1, 2, 3},
			{4, 5, 6},
			{7, 8, 10},
		}), -3},
	}
	for i, c := range cases {
		if got := Det(c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: Det = %v, want %v", i, got, c.want)
		}
	}
}

func TestDetSingularIsZero(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if got := Det(a); got != 0 {
		t.Errorf("Det(singular) = %v, want 0", got)
	}
}

func TestFactorizeSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	_, err := Factorize(a)
	if !errors.Is(err, ErrSingular) {
		t.Errorf("Factorize(singular) error = %v, want ErrSingular", err)
	}
}

func TestFactorizeNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Factorize(non-square) did not panic")
		}
	}()
	Factorize(New(2, 3)) //nolint:errcheck // panics before returning
}

func TestDetProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomDiagonallyDominant(rng, n)
		b := randomDiagonallyDominant(rng, n)
		lhs := Det(a.Mul(b))
		rhs := Det(a) * Det(b)
		return RelDiff(lhs, rhs) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDetTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := randomDiagonallyDominant(rng, n)
		return RelDiff(Det(a), Det(a.Transpose())) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveLengthMismatchPanics(t *testing.T) {
	f, err := Factorize(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Solve with wrong length did not panic")
		}
	}()
	f.Solve([]float64{1, 2})
}

// randomDiagonallyDominant builds a random strictly diagonally dominant
// matrix, which is always nonsingular and well-conditioned enough for
// testing solves.
func randomDiagonallyDominant(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			m.Set(i, j, v)
			rowSum += math.Abs(v)
		}
		sign := 1.0
		if rng.Intn(2) == 0 {
			sign = -1
		}
		m.Set(i, i, sign*(rowSum+1+rng.Float64()))
	}
	return m
}
