package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// checkProgram compiles a's pattern against the source map src (nsrc
// sources) and the initial row init, runs it on the lanes' source values
// vals (length nsrc each), and checks every lane against Refactor and
// SolveTransposeInto on the lane's matrix, whose stored value p is
// vals[l][src[p]]:
//   - the written-back matrix (ValuesInto) is the lane's matrix;
//   - every factor slot's table entry is Refactor's slot bit for bit, in
//     accepted and rejected lanes alike, a NaN matching any NaN: when
//     both factors of a product are NaN the hardware returns one of
//     them, and which one follows the operand order the compiler picks
//     at each code site, so the kernels may carry different NaN
//     payloads; nothing downstream tells NaNs apart;
//   - an accepted lane factors without error, its sum over the solve
//     vector is linalg.Sum of the scalar τ bit for bit, and τ (TauInto)
//     is the scalar τ bit for bit, except that a zero may differ in sign:
//     the program never divides an entry that is structurally zero,
//     which the scalar solve leaves as 0/pivot, -0 under a negative
//     pivot; no sum, no plausibility test and no residual sees that sign;
//   - a rejected lane has a zero pivot in Refactor or a NaN in the
//     scalar τ.
//
// It returns the lanes' verdicts.
func checkProgram(t *testing.T, name string, a *CSR, src []int, nsrc, init int, vals [Lanes][]float64) [Lanes]bool {
	t.Helper()
	s, err := Analyze(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p := s.Compile(src, nsrc, init)
	tab, y := make([]Lane, p.TableLen()), make([]Lane, p.SolveLen())
	for i := range tab[:nsrc] {
		for l := range vals {
			tab[i][l] = vals[l][i]
		}
	}
	ok := p.Run(tab, y)

	n := s.N()
	scalar := NewNumeric(s)
	rhs, want, work := make([]float64, n), make([]float64, n), make([]float64, n)
	rhs[init] = 1
	row, tau := make([]float64, len(src)), make([]float64, n)
	for l := 0; l < Lanes; l++ {
		m := &CSR{Rows: n, Cols: n, RowPtr: a.RowPtr, Col: a.Col, Val: make([]float64, len(src))}
		for q, sr := range src {
			m.Val[q] = vals[l][sr]
		}
		p.ValuesInto(row, tab, l)
		for q, v := range m.Val {
			if math.Float64bits(row[q]) != math.Float64bits(v) {
				t.Fatalf("%s lane %d: written-back value %d = %v, want %v", name, l, q, row[q], v)
			}
		}
		err := scalar.Refactor(m)
		for sl, v := range scalar.val {
			if got := tab[p.vn[sl]][l]; !sameValue(got, v) {
				t.Fatalf("%s lane %d: factor slot %d = %v (%#x), Refactor %v (%#x)", name, l, sl, got, math.Float64bits(got), v, math.Float64bits(v))
			}
		}
		scalar.SolveTransposeInto(want, rhs, work)
		sum := linalg.Sum(want)
		if !ok[l] {
			if err == nil && !math.IsNaN(sum) {
				t.Fatalf("%s lane %d: rejected, but Refactor succeeds and τ sums to %v", name, l, sum)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s lane %d: accepted, but Refactor reports %v", name, l, err)
		}
		var got float64
		for _, v := range y[:p.SolveLen()] {
			got += v[l]
		}
		if !sameValue(got, sum) {
			t.Fatalf("%s lane %d: solve sums to %v, scalar τ to %v", name, l, got, sum)
		}
		p.TauInto(tau, y, l)
		for i, v := range want {
			if !sameValue(tau[i], v) && !(tau[i] == 0 && v == 0) {
				t.Fatalf("%s lane %d: τ[%d] = %v, SolveTransposeInto %v", name, l, i, tau[i], v)
			}
		}
	}
	return ok
}

// sameValue reports whether a and b have the same bits, or are both
// NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// identitySources is the identity source map of a's stored values and
// the lane values a's values give it: lane 0 holds a's values, the
// others perturb them.
func identitySources(rng *rand.Rand, a *CSR) (src []int, vals [Lanes][]float64) {
	src = make([]int, len(a.Val))
	for q := range src {
		src[q] = q
	}
	for l := range vals {
		vals[l] = append([]float64(nil), a.Val...)
		if l > 0 {
			for q := range vals[l] {
				vals[l][q] *= 1 + 0.2*rng.Float64()
			}
		}
	}
	return src, vals
}

// sharedSources returns a source map over a's pattern that shares few
// sources among many stored values, as rate classes do: every
// off-diagonal takes one of nOff sources of value in (-1, 0], every
// diagonal one of nDiag sources of value in [n, 2n), which keeps every
// lane's matrix diagonally dominant.
func sharedSources(rng *rand.Rand, a *CSR, nOff, nDiag int) (src []int, nsrc int, vals [Lanes][]float64) {
	src = make([]int, len(a.Val))
	for i := 0; i < a.Rows; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if a.Col[q] == i {
				src[q] = nOff + rng.Intn(nDiag)
			} else {
				src[q] = rng.Intn(nOff)
			}
		}
	}
	nsrc = nOff + nDiag
	for l := range vals {
		vals[l] = make([]float64, nsrc)
		for i := range vals[l] {
			if i < nOff {
				vals[l][i] = -rng.Float64()
			} else {
				vals[l][i] = float64(a.Rows) * (1 + rng.Float64())
			}
		}
	}
	return src, nsrc, vals
}

// Each lane of a compiled program is bit for bit Refactor and
// SolveTransposeInto on that lane's matrix, on random diagonally
// dominant patterns, most of which fill in, and a random initial row:
// with the identity source map, where nothing is shared, and with maps
// that share a few sources among all stored values, where most
// operations are.
func TestProgramMatchesRefactorBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shared := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		a := FromDense(randDiagDominant(rng, n, 0.02+0.2*rng.Float64()))
		init := rng.Intn(n)
		name := fmt.Sprintf("trial %d n=%d", trial, n)
		src, vals := identitySources(rng, a)
		nsrc := len(src)
		if trial%2 == 1 {
			src, nsrc, vals = sharedSources(rng, a, 1+rng.Intn(4), 1+rng.Intn(3))
			s, _ := Analyze(a)
			if st := s.Compile(src, nsrc, init).Stats(); st.Divides+st.Updates < len(s.li)+len(s.dst) {
				shared++
			}
		}
		if ok := checkProgram(t, name, a, src, nsrc, init, vals); ok != [Lanes]bool{true, true, true, true} {
			t.Fatalf("%s: diagonally dominant lanes rejected: %v", name, ok)
		}
	}
	if shared < 50 {
		t.Fatalf("only %d of 100 shared source maps dropped an operation", shared)
	}
}

// Lanes that disagree on the scalar kernels' special cases stay exact:
// a zero or negative-zero multiplier in one lane only, a zero pivot in
// one lane only (and the lanes below it on garbage), and ±Inf, NaN,
// subnormal and 1e±300 entries, each at every lane position, with a
// random initial row. The pivot cancellations must make lanes rejected,
// not just match the scalar verdicts.
func TestLanesSpecialValuesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -2.5e-310, 1e300, 1e-300, -1e300}
	rejected := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		a := FromDense(randDiagDominant(rng, n, 0.25))
		s, err := Analyze(a)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < Lanes; l++ {
			src, vals := identitySources(rng, a)
			var kind string
			switch trial % 4 {
			case 0: // zero every off-diagonal stored value of one row
				kind = "zero multipliers"
				row := rng.Intn(n)
				for q := a.RowPtr[row]; q < a.RowPtr[row+1]; q++ {
					if a.Col[q] != row {
						vals[l][q] = math.Copysign(0, float64(rng.Intn(2))-0.5)
					}
				}
			case 1: // cancel the pivot at a random step, as the oracle computes it
				kind = "zero pivot"
				step := rng.Intn(n)
				m := &CSR{Rows: n, Cols: n, RowPtr: a.RowPtr, Col: a.Col, Val: vals[l]}
				_, uval, err := oracleRefactor(s, m)
				if err != nil {
					t.Fatal(err)
				}
				orig := s.perm[step]
				for q := a.RowPtr[orig]; q < a.RowPtr[orig+1]; q++ {
					if a.Col[q] == orig {
						vals[l][q] -= uval[s.up[step]]
					}
				}
			default:
				kind = "special entry"
				for i := 0; i < 1+trial%3; i++ {
					vals[l][rng.Intn(len(vals[l]))] = specials[rng.Intn(len(specials))]
				}
			}
			name := fmt.Sprintf("trial %d n=%d %s in lane %d", trial, n, kind, l)
			ok := checkProgram(t, name, a, src, len(src), rng.Intn(n), vals)
			if kind == "zero pivot" && !ok[l] {
				rejected++
			}
		}
	}
	if rejected < 10 {
		t.Fatalf("only %d of 60 cancelled pivots rejected their lane", rejected)
	}
}

// FuzzLanesMatchScalar mutates patterns, source maps, values and special
// entries: every lane of a compiled program must stay bit for bit the
// scalar kernels on its own matrix. specials is read in pairs: a source
// (scaled into range) and a value kind written there in lane kind%Lanes.
func FuzzLanesMatchScalar(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), false, []byte{})
	f.Add(int64(2), uint8(30), uint8(10), true, []byte{3, 0, 9, 5, 200, 10})
	f.Add(int64(3), uint8(1), uint8(0), false, []byte{0, 7})
	f.Add(int64(4), uint8(20), uint8(90), true, []byte{17, 14, 40, 3, 41, 11, 90, 12})
	f.Add(int64(4), uint8(20), uint8(90), true, []byte("0cx7")) // a product of two different NaNs
	f.Fuzz(func(t *testing.T, seed int64, size, density uint8, share bool, specials []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size%48)
		a := FromDense(randDiagDominant(rng, n, float64(density%100)/200))
		src, vals := identitySources(rng, a)
		nsrc := len(src)
		if share {
			src, nsrc, vals = sharedSources(rng, a, 1+rng.Intn(5), 1+rng.Intn(3))
		}
		kinds := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, 1e300, -1, 5e-324}
		for i := 0; i+1 < len(specials) && i < 32; i += 2 {
			q := int(specials[i]) * nsrc / 256
			k := int(specials[i+1])
			vals[k%Lanes][q] = kinds[(k/Lanes)%len(kinds)]
		}
		checkProgram(t, "fuzz", a, src, nsrc, rng.Intn(n), vals)
	})
}
