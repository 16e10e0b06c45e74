package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// randDiagDominant builds a random row diagonally dominant matrix with
// the given off-diagonal fill probability — the regime the absorption
// matrices live in, where static pivoting is provably stable.
func randDiagDominant(rng *rand.Rand, n int, p float64) *linalg.Matrix {
	a := linalg.New(n, n)
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < p {
				v := rng.Float64()
				a.Set(i, j, -v)
				row += v
			}
		}
		a.Set(i, i, row+rng.Float64()+0.1)
	}
	return a
}

func maxRelDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if s := math.Max(math.Abs(a[i]), 1); d/s > worst {
			worst = d / s
		}
	}
	return worst
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDiagDominant(rng, 12, 0.3)
	m := FromDense(a)
	if err := m.Valid(); err != nil {
		t.Fatal(err)
	}
	back := dense(m)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if back.At(i, j) != a.At(i, j) {
				t.Fatalf("roundtrip mismatch at (%d,%d)", i, j)
			}
			if m.At(i, j) != a.At(i, j) {
				t.Fatalf("At mismatch at (%d,%d)", i, j)
			}
		}
	}
	if m.NNZ() != len(m.Val) {
		t.Fatalf("NNZ %d vs %d vals", m.NNZ(), len(m.Val))
	}
	if d := m.Density(); d <= 0 || d > 1 {
		t.Fatalf("density %v out of range", d)
	}
}

func TestValidCatchesViolations(t *testing.T) {
	good := FromDense(randDiagDominant(rand.New(rand.NewSource(2)), 6, 0.4))
	cases := []struct {
		name   string
		break_ func(*CSR)
	}{
		{"rowptr length", func(m *CSR) { m.RowPtr = m.RowPtr[:len(m.RowPtr)-1] }},
		{"rowptr start", func(m *CSR) { m.RowPtr[0] = 1 }},
		{"rowptr decrease", func(m *CSR) { m.RowPtr[1], m.RowPtr[2] = m.RowPtr[2]+1, m.RowPtr[1] }},
		{"column range", func(m *CSR) { m.Col[0] = m.Cols }},
		{"column order", func(m *CSR) {
			p := m.RowPtr[0]
			m.Col[p], m.Col[p+1] = m.Col[p+1], m.Col[p]
		}},
		{"nnz mismatch", func(m *CSR) { m.Val = m.Val[:len(m.Val)-1] }},
	}
	for _, tc := range cases {
		m := &CSR{Rows: good.Rows, Cols: good.Cols,
			RowPtr: append([]int(nil), good.RowPtr...),
			Col:    append([]int(nil), good.Col...),
			Val:    append([]float64(nil), good.Val...)}
		tc.break_(m)
		if m.Valid() == nil {
			t.Errorf("%s: Valid accepted a broken matrix", tc.name)
		}
	}
}

func TestMatVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		a := randDiagDominant(rng, n, 0.25)
		m := FromDense(a)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVecInto(make([]float64, n), x)
		gotT := m.VecMulInto(make([]float64, n), x)
		for i := 0; i < n; i++ {
			var want, wantT float64
			for j := 0; j < n; j++ {
				want += a.At(i, j) * x[j]
				wantT += a.At(j, i) * x[j]
			}
			if math.Abs(got[i]-want) > 1e-12*(math.Abs(want)+1) {
				t.Fatalf("MulVec mismatch at %d: %v vs %v", i, got[i], want)
			}
			if math.Abs(gotT[i]-wantT) > 1e-12*(math.Abs(wantT)+1) {
				t.Fatalf("VecMul mismatch at %d: %v vs %v", i, gotT[i], wantT)
			}
		}
	}
}

func TestLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		a := randDiagDominant(rng, n, 0.15)
		f, err := linalg.Factorize(a)
		if err != nil {
			t.Fatal(err)
		}
		nu, err := Factorize(FromDense(a))
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xd := f.Solve(append([]float64(nil), b...))
		xs := nu.SolveInto(make([]float64, n), b)
		if d := maxRelDiff(xd, xs); d > 1e-11 {
			t.Fatalf("trial %d n=%d: solve diverges from dense by %g", trial, n, d)
		}
		td := f.SolveTranspose(append([]float64(nil), b...))
		ts := nu.SolveTransposeInto(make([]float64, n), b, make([]float64, n))
		if d := maxRelDiff(td, ts); d > 1e-11 {
			t.Fatalf("trial %d n=%d: transpose solve diverges from dense by %g", trial, n, d)
		}
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := FromDense(randDiagDominant(rng, 40, 0.1))
	s1, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.perm {
		if s1.perm[i] != s2.perm[i] {
			t.Fatalf("ordering not deterministic at %d", i)
		}
	}
	if s1.FactorNNZ() != s2.FactorNNZ() {
		t.Fatalf("fill not deterministic: %d vs %d", s1.FactorNNZ(), s2.FactorNNZ())
	}
}

func TestRefactorMatchesFreshFactorizeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDiagDominant(rng, 50, 0.12)
	ca := FromDense(a)
	nu, err := Factorize(ca)
	if err != nil {
		t.Fatal(err)
	}
	// New values, same pattern.
	cb := &CSR{Rows: ca.Rows, Cols: ca.Cols, RowPtr: ca.RowPtr, Col: ca.Col,
		Val: append([]float64(nil), ca.Val...)}
	for i := range cb.Val {
		cb.Val[i] *= 1 + 0.1*rng.Float64()
	}
	if err := nu.Refactor(cb); err != nil {
		t.Fatal(err)
	}
	fresh, err := Factorize(cb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nu.val {
		if nu.val[i] != fresh.val[i] {
			t.Fatalf("refactored factors differ from fresh factorization at slot %d", i)
		}
	}
}

// oracleRefactor is the scatter/gather Doolittle loop the compiled
// elimination program replaces: B = P·A·Pᵀ row by row through a dense
// workspace, eliminating along L's pattern in ascending column order
// (ikj). It returns fresh L and U value arrays over s's pattern.
func oracleRefactor(s *Symbolic, a *CSR) (lval, uval []float64, err error) {
	lval = make([]float64, len(s.li))
	uval = make([]float64, len(s.ui))
	w := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		orig := s.perm[i]
		for p := a.RowPtr[orig]; p < a.RowPtr[orig+1]; p++ {
			w[s.inv[a.Col[p]]] = a.Val[p]
		}
		for p := s.lp[i]; p < s.lp[i+1]; p++ {
			k := s.li[p]
			m := w[k] / uval[s.up[k]]
			lval[p] = m
			w[k] = 0
			if m == 0 {
				continue
			}
			for q := s.up[k] + 1; q < s.up[k+1]; q++ {
				w[s.ui[q]] -= m * uval[q]
			}
		}
		for p := s.up[i]; p < s.up[i+1]; p++ {
			j := s.ui[p]
			uval[p] = w[j]
			w[j] = 0
		}
		if uval[s.up[i]] == 0 {
			return nil, nil, fmt.Errorf("%w: zero pivot at elimination step %d (original row %d)", linalg.ErrSingular, i, orig)
		}
	}
	return lval, uval, nil
}

// checkAgainstOracle refactors a and compares the compiled program with
// oracleRefactor: bit-identical L and U values, and bit-identical
// SolveInto and SolveTransposeInto results against a Numeric holding
// the oracle's factors. It returns the number of fill slots.
func checkAgainstOracle(t *testing.T, name string, a *CSR, rng *rand.Rand) int {
	t.Helper()
	s, err := Analyze(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	nu := NewNumeric(s)
	if err := nu.Refactor(a); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lval, uval, err := oracleRefactor(s, a)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	oracle := NewNumeric(s)
	copy(oracle.lval, lval)
	copy(oracle.uval, uval)
	for i := range nu.val {
		if math.Float64bits(nu.val[i]) != math.Float64bits(oracle.val[i]) {
			t.Fatalf("%s: factor slot %d = %v, oracle %v", name, i, nu.val[i], oracle.val[i])
		}
	}
	n := s.N()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, xo := nu.SolveInto(make([]float64, n), b), oracle.SolveInto(make([]float64, n), b)
	xt := nu.SolveTransposeInto(make([]float64, n), b, make([]float64, n))
	xto := oracle.SolveTransposeInto(make([]float64, n), b, make([]float64, n))
	for i := 0; i < n; i++ {
		if math.Float64bits(x[i]) != math.Float64bits(xo[i]) || math.Float64bits(xt[i]) != math.Float64bits(xto[i]) {
			t.Fatalf("%s: solve %d differs from the oracle's factors", name, i)
		}
	}
	return len(s.fill)
}

// The compiled elimination program performs the scatter/gather loop's
// float operations in the same order: bit-identical factors and solves
// on random diagonally dominant patterns, most of which fill in.
func TestCompiledRefactorMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	filled := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		a := FromDense(randDiagDominant(rng, n, 0.02+0.2*rng.Float64()))
		if checkAgainstOracle(t, fmt.Sprintf("trial %d n=%d", trial, n), a, rng) > 0 {
			filled++
		}
	}
	if filled < 100 {
		t.Fatalf("only %d of 200 random patterns filled in; the test needs fill", filled)
	}
}

// A zero pivot stops the compiled program at the step, and with the
// message, the oracle reports.
func TestCompiledRefactorZeroPivotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	singular := 0
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		a := FromDense(randDiagDominant(rng, n, 0.2))
		s, err := Analyze(a)
		if err != nil {
			t.Fatal(err)
		}
		// Cancel the pivot at a random step: subtract the pivot value
		// the oracle computes there from the diagonal entry.
		step := rng.Intn(n)
		_, uval, err := oracleRefactor(s, a)
		if err != nil {
			t.Fatal(err)
		}
		orig := s.perm[step]
		for p := a.RowPtr[orig]; p < a.RowPtr[orig+1]; p++ {
			if a.Col[p] == orig {
				a.Val[p] -= uval[s.up[step]]
			}
		}
		_, _, want := oracleRefactor(s, a)
		got := NewNumeric(s).Refactor(a)
		if (want == nil) != (got == nil) || want != nil && want.Error() != got.Error() {
			t.Fatalf("trial %d: Refactor error %v, oracle %v", trial, got, want)
		}
		if got != nil {
			if !errors.Is(got, linalg.ErrSingular) {
				t.Fatalf("trial %d: %v is not ErrSingular", trial, got)
			}
			singular++
		}
	}
	if singular < 10 {
		t.Fatalf("only %d of 50 trials hit a zero pivot", singular)
	}
}

// A matrix with the analyzed dimensions and stored count but another
// pattern must not be factored against the analyzed program: the
// compiled slot map would silently mis-factor it.
func TestRefactorRejectsOtherPattern(t *testing.T) {
	analyzed := linalg.New(3, 3)
	analyzed.Set(0, 0, 4)
	analyzed.Set(0, 1, -1)
	analyzed.Set(1, 1, 4)
	analyzed.Set(2, 2, 4)
	nu, err := Factorize(FromDense(analyzed))
	if err != nil {
		t.Fatal(err)
	}
	other := linalg.New(3, 3)
	other.Set(0, 0, 4)
	other.Set(0, 2, -1) // (0,2) stored instead of (0,1): same nnz
	other.Set(1, 1, 4)
	other.Set(2, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Refactor accepted a matrix with a different pattern")
		}
	}()
	nu.Refactor(FromDense(other)) //nolint:errcheck // must panic
}

// A matrix viewing the Symbolic's own pattern refactors like any other
// matrix with that pattern.
func TestRefactorOwnPatternView(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := FromDense(randDiagDominant(rng, 30, 0.1))
	nu, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), nu.val...)
	rowptr, col := nu.Symbolic().Pattern()
	if &rowptr[0] == &a.RowPtr[0] || &col[0] == &a.Col[0] {
		t.Fatal("Symbolic shares the analyzed matrix's pattern slices; want its own copy")
	}
	view := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: rowptr, Col: col, Val: a.Val}
	if err := nu.Refactor(view); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if nu.val[i] != want[i] {
			t.Fatalf("slot %d: %v via the pattern view, %v via the matrix", i, nu.val[i], want[i])
		}
	}
}

func TestSingularDetected(t *testing.T) {
	a := linalg.New(3, 3)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 1) // rows 0 and 1 identical → zero pivot
	a.Set(2, 2, 1)
	_, err := Factorize(FromDense(a))
	if !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestAnalyzeRejectsZeroDiagonal(t *testing.T) {
	a := linalg.New(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	if _, err := Analyze(FromDense(a)); err == nil {
		t.Fatal("Analyze accepted a structurally zero diagonal")
	}
}

// Aliased or mis-sized vectors, a source map that does not fit the
// pattern and a program table too short for it are caller bugs and
// panic.
func TestSolveAliasPanics(t *testing.T) {
	a := FromDense(randDiagDominant(rand.New(rand.NewSource(7)), 5, 0.5))
	nu, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 5)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("SolveInto alias", func() { nu.SolveInto(b, b) })
	mustPanic("SolveTransposeInto alias", func() { nu.SolveTransposeInto(b, b, b) })
	mustPanic("SolveInto length", func() { nu.SolveInto(make([]float64, 4), b) })

	s := nu.Symbolic()
	src := make([]int, a.NNZ())
	mustPanic("Compile source map length", func() { s.Compile(src[1:], 1, 0) })
	mustPanic("Compile source out of range", func() { s.Compile(src, 0, 0) })
	mustPanic("Compile initial row", func() { s.Compile(src, 1, 5) })
	p := s.Compile(src, 1, 0)
	mustPanic("Run table length", func() { p.Run(make([]Lane, p.TableLen()-1), make([]Lane, p.SolveLen())) })
	mustPanic("Run solve length", func() { p.Run(make([]Lane, p.TableLen()), make([]Lane, p.SolveLen()-1)) })
}

// TestSteadyStateAllocFree pins the sweep-hot operations at zero
// allocations: numeric refactorization, both solves, and a compiled
// program's run over caller-owned tables.
func TestSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := FromDense(randDiagDominant(rng, 80, 0.08))
	nu, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 80)
	x := make([]float64, 80)
	work := make([]float64, 80)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := nu.Refactor(a); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Refactor allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { nu.SolveInto(x, b) }); n != 0 {
		t.Errorf("SolveInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { nu.SolveTransposeInto(x, b, work) }); n != 0 {
		t.Errorf("SolveTransposeInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.MulVecInto(x, b) }); n != 0 {
		t.Errorf("MulVecInto allocates %v per run", n)
	}
	src, vals := identitySources(rng, a)
	p := nu.Symbolic().Compile(src, len(src), 3)
	tab, y := make([]Lane, p.TableLen()), make([]Lane, p.SolveLen())
	for i := range src {
		for l := range vals {
			tab[i][l] = vals[l][i]
		}
	}
	if n := testing.AllocsPerRun(100, func() { p.Run(tab, y) }); n != 0 {
		t.Errorf("Program.Run allocates %v per run", n)
	}
}

// dense expands m to dense form.
func dense(m *CSR) *linalg.Matrix {
	out := linalg.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Set(i, m.Col[p], m.Val[p])
		}
	}
	return out
}
