package sparse

import (
	"fmt"
	"slices"

	"repro/internal/linalg"
)

// Symbolic is the pattern half of a sparse LU factorization: the
// fill-reducing ordering and the exact nonzero structure of L and U for
// every matrix sharing the analyzed pattern. It is immutable after
// Analyze and safe for concurrent use by multiple Numeric objects.
//
// With P the permutation induced by the ordering, the factorization is
// P·A·Pᵀ = L·U with L unit lower triangular and U upper triangular. The
// permutation is symmetric (rows and columns alike), so the diagonal of
// A stays on the diagonal — which is what makes static pivoting viable
// for the diagonally dominant absorption matrices this package serves.
type Symbolic struct {
	n    int
	perm []int // perm[k] = original index eliminated at step k
	inv  []int // inv[perm[k]] = k

	// L's strictly-lower pattern and U's pattern (diagonal first, then
	// strictly-upper), row-wise with ascending columns, CSR-style.
	lp, up []int
	li, ui []int

	// rowptr/col is the one copy of the analyzed matrix's pattern:
	// Refactor checks every matrix against it.
	rowptr, col []int

	// The compiled elimination program. A Numeric keeps L and U values
	// in one slot array: L entry p at slot p, U entry q at len(li)+q.
	// Refactor replays, with no permutation lookups:
	//   - aslot[p]: the factor slot of the analyzed matrix's stored
	//     position p (CSR order), where a.Val[p] is scattered;
	//   - fill: the factor slots no stored position reaches, zeroed;
	//   - per L entry e (row-major, ascending column — Doolittle ikj
	//     order): piv[e] is the slot of its pivot (U's diagonal of row
	//     li[e]), and dst[upd[e]:upd[e+1]] are the slots its multiplier
	//     updates, paired in order with the pivot row's off-diagonal U
	//     slots piv[e]+1, piv[e]+2, ….
	aslot, fill   []int32
	piv, upd, dst []int32
}

// Analyze computes the fill-reducing ordering and the L/U fill pattern
// for the pattern of a, and compiles the elimination program Refactor
// replays. Every matrix with the same pattern can be factored against
// the result with Refactor. It returns an error if a is not square,
// violates CSR invariants, or has a structurally zero diagonal entry
// (no stored A[i][i]), which static pivoting cannot repair.
func Analyze(a *CSR) (*Symbolic, error) {
	if err := a.Valid(); err != nil {
		return nil, err
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: Analyze requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	s := &Symbolic{
		n:      n,
		perm:   minDegreeOrder(n, a.RowPtr, a.Col),
		inv:    make([]int, n),
		lp:     make([]int, n+1),
		up:     make([]int, n+1),
		rowptr: append([]int(nil), a.RowPtr...),
		col:    append([]int(nil), a.Col...),
	}
	for k, orig := range s.perm {
		s.inv[orig] = k
	}

	// Row-merge symbolic factorization on B = P·A·Pᵀ: the pattern of
	// row i of LU is the closure of B's row i under "for each k < i in
	// the pattern, merge U's row k (columns > k)". A dense boolean
	// workspace with an ascending scan keeps it simple and exactly
	// deterministic; the cost is paid once per topology.
	w := make([]bool, n)
	cols := make([]int, 0, n)
	for i := 0; i < n; i++ {
		orig := s.perm[i]
		diag := false
		for p := a.RowPtr[orig]; p < a.RowPtr[orig+1]; p++ {
			j := s.inv[a.Col[p]]
			w[j] = true
			if j == i {
				diag = true
			}
		}
		if !diag {
			return nil, fmt.Errorf("sparse: structurally zero diagonal at original row %d", orig)
		}
		for k := 0; k < i; k++ {
			if !w[k] {
				continue
			}
			for p := s.up[k] + 1; p < s.up[k+1]; p++ { // skip U's diagonal
				w[s.ui[p]] = true
			}
		}
		// Gather: L part (k < i) then U part (diagonal first).
		cols = cols[:0]
		for j := 0; j < n; j++ {
			if w[j] {
				cols = append(cols, j)
				w[j] = false
			}
		}
		for _, j := range cols {
			if j < i {
				s.li = append(s.li, j)
			} else {
				s.ui = append(s.ui, j)
			}
		}
		s.lp[i+1] = len(s.li)
		s.up[i+1] = len(s.ui)
	}
	s.compile()
	return s, nil
}

// compile derives the elimination program from the symbolic pattern.
// Row i's workspace column j of the classic scatter/gather Doolittle
// loop becomes row i's factor slot of column j, so the program performs
// exactly that loop's float operations, in its order.
func (s *Symbolic) compile() {
	nL := len(s.li)
	slot := make([]int32, s.n) // slot[j]: row i's factor slot of column j
	reached := make([]bool, nL+len(s.ui))
	s.aslot = make([]int32, len(s.col))
	s.piv = make([]int32, nL)
	s.upd = make([]int32, nL+1)
	for i := 0; i < s.n; i++ {
		for p := s.lp[i]; p < s.lp[i+1]; p++ {
			slot[s.li[p]] = int32(p)
		}
		for q := s.up[i]; q < s.up[i+1]; q++ {
			slot[s.ui[q]] = int32(nL + q)
		}
		orig := s.perm[i]
		for p := s.rowptr[orig]; p < s.rowptr[orig+1]; p++ {
			s.aslot[p] = slot[s.inv[s.col[p]]]
			reached[s.aslot[p]] = true
		}
		for p := s.lp[i]; p < s.lp[i+1]; p++ {
			k := s.li[p]
			s.piv[p] = int32(nL + s.up[k])
			for q := s.up[k] + 1; q < s.up[k+1]; q++ {
				s.dst = append(s.dst, slot[s.ui[q]])
			}
			s.upd[p+1] = int32(len(s.dst))
		}
	}
	for sl, ok := range reached {
		if !ok {
			s.fill = append(s.fill, int32(sl))
		}
	}
}

// Pattern returns the analyzed matrix's pattern, the Symbolic's own copy.
// A caller may point a CSR at these slices, which lets Refactor check
// the pattern in O(1); it must not modify them.
func (s *Symbolic) Pattern() (rowptr, col []int) { return s.rowptr, s.col }

// checkPattern panics unless a has the analyzed pattern: dimensions,
// stored count and every stored position. A matrix viewing the
// Symbolic's own pattern slices passes in O(1).
func (s *Symbolic) checkPattern(a *CSR) {
	if a.Rows != s.n || a.Cols != s.n {
		panic(fmt.Sprintf("sparse: Refactor matrix %dx%d vs analyzed dimension %d", a.Rows, a.Cols, s.n))
	}
	if a.NNZ() != len(s.col) {
		panic(fmt.Sprintf("sparse: Refactor matrix has %d nonzeros, analyzed pattern has %d", a.NNZ(), len(s.col)))
	}
	if sameInts(a.RowPtr, s.rowptr) && sameInts(a.Col, s.col) {
		return
	}
	panic("sparse: Refactor matrix pattern differs from the analyzed pattern")
}

// sameInts reports whether a and b hold the same values; a slice
// compared with itself returns at once.
func sameInts(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || slices.Equal(a, b))
}

// N returns the dimension of the analyzed pattern.
func (s *Symbolic) N() int { return s.n }

// FactorNNZ returns the total stored entries of the factors, counting
// L's implicit unit diagonal.
func (s *Symbolic) FactorNNZ() int { return len(s.li) + len(s.ui) + s.n }

// FillRatio returns FactorNNZ relative to the analyzed matrix's nnz —
// 1.0 means the factorization added no fill at all.
func (s *Symbolic) FillRatio() float64 {
	if len(s.col) == 0 {
		return 1
	}
	return float64(s.FactorNNZ()) / float64(len(s.col))
}

// Numeric holds the value half of a factorization: L and U values over
// a Symbolic pattern, in one factor slot array. Refactor overwrites the
// values in place, so one Numeric amortizes across every matrix that
// shares the pattern. Not safe for concurrent use.
type Numeric struct {
	s          *Symbolic
	val        []float64 // factor slots: L values, then U values
	lval, uval []float64 // views of val
	y          []float64 // solve scratch (permuted intermediate)
}

// NewNumeric allocates value storage for the pattern. The returned
// Numeric must be filled with Refactor before solving.
func NewNumeric(s *Symbolic) *Numeric {
	nL := len(s.li)
	val := make([]float64, nL+len(s.ui))
	return &Numeric{
		s:    s,
		val:  val,
		lval: val[:nL:nL],
		uval: val[nL:],
		y:    make([]float64, s.n),
	}
}

// Symbolic returns the pattern this Numeric factors against.
func (nu *Numeric) Symbolic() *Symbolic { return nu.s }

// Refactor computes the LU values for a, whose pattern must be the one
// passed to Analyze (same dimensions and stored positions; values are
// free) — any other pattern panics. It zeroes the fill slots, scatters
// a's values into their factor slots and replays the compiled
// elimination program, with no allocation. It returns ErrSingular if a
// pivot is exactly zero; the Numeric is then unusable until a successful
// Refactor.
func (nu *Numeric) Refactor(a *CSR) error {
	s := nu.s
	s.checkPattern(a)
	val := nu.val
	for _, sl := range s.fill {
		val[sl] = 0
	}
	for p, sl := range s.aslot {
		val[sl] = a.Val[p]
	}
	// Eliminate along the L entries, row by row in ascending column
	// order (Doolittle ikj): each reads only final U rows above its own.
	for e, piv := range s.piv {
		m := val[e] / val[piv]
		val[e] = m
		if m == 0 {
			continue
		}
		dst := s.dst[s.upd[e]:s.upd[e+1]]
		src := val[int(piv)+1 : int(piv)+1+len(dst)]
		for t, d := range dst {
			val[d] -= m * src[t]
		}
	}
	// A zero pivot leaves the rows below it garbage, never the pivots
	// above it: the first zero in step order is the one the row-by-row
	// elimination stops at.
	uval := nu.uval
	for i := 0; i < s.n; i++ {
		if uval[s.up[i]] == 0 {
			return fmt.Errorf("%w: zero pivot at elimination step %d (original row %d)", linalg.ErrSingular, i, s.perm[i])
		}
	}
	return nil
}

// SolveInto solves A·x = b, writing x into dst and returning it. It
// mirrors linalg.LU.SolveInto: caller-owned output, dst must not alias
// b, both length N, 0 allocs/op.
func (nu *Numeric) SolveInto(dst, b []float64) []float64 {
	s := nu.s
	n := s.n
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("sparse: SolveInto lengths dst=%d b=%d vs dimension %d", len(dst), len(b), n))
	}
	if n > 0 && &dst[0] == &b[0] {
		panic("sparse: SolveInto dst must not alias b")
	}
	y := nu.y
	// y = P·b, then L·U·y = P·b by substitution on the sparse rows.
	for i := 0; i < n; i++ {
		y[i] = b[s.perm[i]]
	}
	for i := 0; i < n; i++ {
		v := y[i]
		for p := s.lp[i]; p < s.lp[i+1]; p++ {
			v -= nu.lval[p] * y[s.li[p]]
		}
		y[i] = v
	}
	for i := n - 1; i >= 0; i-- {
		v := y[i]
		for p := s.up[i] + 1; p < s.up[i+1]; p++ {
			v -= nu.uval[p] * y[s.ui[p]]
		}
		y[i] = v / nu.uval[s.up[i]]
	}
	// x = Pᵀ·y.
	for i := 0; i < n; i++ {
		dst[s.perm[i]] = y[i]
	}
	return dst
}

// SolveTransposeInto solves Aᵀ·x = b, writing x into dst and returning
// it. work is caller-owned scratch, mirroring linalg.LU: dst may alias
// b, dst must not alias work, all three length N, 0 allocs/op.
func (nu *Numeric) SolveTransposeInto(dst, b, work []float64) []float64 {
	s := nu.s
	n := s.n
	if len(b) != n || len(dst) != n || len(work) != n {
		panic(fmt.Sprintf("sparse: SolveTransposeInto lengths dst=%d b=%d work=%d vs dimension %d", len(dst), len(b), len(work), n))
	}
	if n > 0 && &dst[0] == &work[0] {
		panic("sparse: SolveTransposeInto dst must not alias work")
	}
	y := work
	// (P·A·Pᵀ)ᵀ = Uᵀ·Lᵀ, so solve Uᵀ·Lᵀ·(P·x) = P·b. Both triangular
	// solves run in "push" form over the row-major factors: once y[k]
	// is final, its contribution is pushed into the rows below (Uᵀ,
	// ascending) or above (Lᵀ, descending).
	for i := 0; i < n; i++ {
		y[i] = b[s.perm[i]]
	}
	for k := 0; k < n; k++ {
		v := y[k] / nu.uval[s.up[k]]
		y[k] = v
		if v == 0 {
			continue
		}
		for p := s.up[k] + 1; p < s.up[k+1]; p++ {
			y[s.ui[p]] -= nu.uval[p] * v
		}
	}
	for k := n - 1; k >= 0; k-- {
		v := y[k]
		if v == 0 {
			continue
		}
		for p := s.lp[k]; p < s.lp[k+1]; p++ {
			y[s.li[p]] -= nu.lval[p] * v
		}
	}
	for i := 0; i < n; i++ {
		dst[s.perm[i]] = y[i]
	}
	return dst
}

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
