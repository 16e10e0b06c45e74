package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkLanes factors the Lanes value rows vals over a's pattern with
// Refactor4 and solves them with SolveTranspose4Into against the
// right-hand sides rhs, and checks every lane against the scalar kernels
// on that lane's matrix: the pivot verdict (Refactor's error), every
// factor slot and every τ entry bit for bit. Singular lanes are solved
// and compared too: the lanes must match even on garbage. It returns the
// lanes' verdicts.
func checkLanes(t *testing.T, name string, a *CSR, vals, rhs [Lanes][]float64) [Lanes]bool {
	t.Helper()
	s, err := Analyze(a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := s.N()
	lanes := NewNumeric(s)
	ok := lanes.Refactor4(&vals)
	var tau [Lanes][]float64
	for l := range tau {
		tau[l] = make([]float64, n)
	}
	lanes.SolveTranspose4Into(&tau, &rhs)

	scalar := NewNumeric(s)
	want, work := make([]float64, n), make([]float64, n)
	for l := 0; l < Lanes; l++ {
		m := &CSR{Rows: n, Cols: n, RowPtr: a.RowPtr, Col: a.Col, Val: vals[l]}
		err := scalar.Refactor(m)
		if ok[l] != (err == nil) {
			t.Fatalf("%s lane %d: Refactor4 verdict %v, Refactor error %v", name, l, ok[l], err)
		}
		for sl, v := range scalar.val {
			if got := lanes.lanes[sl][l]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s lane %d: factor slot %d = %v, Refactor %v", name, l, sl, got, v)
			}
		}
		scalar.SolveTransposeInto(want, rhs[l], work)
		for i, v := range want {
			if math.Float64bits(tau[l][i]) != math.Float64bits(v) {
				t.Fatalf("%s lane %d: τ[%d] = %v, SolveTransposeInto %v", name, l, i, tau[l][i], v)
			}
		}
	}
	return ok
}

// laneValues returns Lanes value rows over a's pattern: lane 0 holds
// a's values, the others perturb them.
func laneValues(rng *rand.Rand, a *CSR) [Lanes][]float64 {
	var vals [Lanes][]float64
	for l := range vals {
		vals[l] = append([]float64(nil), a.Val...)
		if l > 0 {
			for p := range vals[l] {
				vals[l][p] *= 1 + 0.2*rng.Float64()
			}
		}
	}
	return vals
}

// laneRHS returns Lanes random right-hand sides of length n, a third of
// whose entries are zero, so the solves' zero skips differ by lane.
func laneRHS(rng *rand.Rand, n int) [Lanes][]float64 {
	var rhs [Lanes][]float64
	for l := range rhs {
		rhs[l] = make([]float64, n)
		for i := range rhs[l] {
			if rng.Intn(3) > 0 {
				rhs[l][i] = rng.NormFloat64()
			}
		}
	}
	return rhs
}

// Each lane of Refactor4 and SolveTranspose4Into is bit for bit the
// scalar kernels on that lane's matrix, on random diagonally dominant
// patterns, most of which fill in, and with unit right-hand sides like
// the absorption solves'.
func TestRefactor4MatchesRefactorBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		a := FromDense(randDiagDominant(rng, n, 0.02+0.2*rng.Float64()))
		rhs := laneRHS(rng, n)
		if trial%2 == 0 {
			for l := range rhs {
				clear(rhs[l])
				rhs[l][rng.Intn(n)] = 1
			}
		}
		name := fmt.Sprintf("trial %d n=%d", trial, n)
		if ok := checkLanes(t, name, a, laneValues(rng, a), rhs); ok != [Lanes]bool{true, true, true, true} {
			t.Fatalf("%s: diagonally dominant lanes judged singular: %v", name, ok)
		}
	}
}

// Lanes that disagree on the scalar kernels' special cases stay exact:
// a zero or negative-zero multiplier in one lane only, a zero pivot in
// one lane only (and the lanes below it on garbage), and Inf and NaN
// entries, each at every lane position. The pivot cancellations must
// make lanes singular, not just match the scalar verdicts.
func TestLanesSpecialValuesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	singular := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		a := FromDense(randDiagDominant(rng, n, 0.25))
		s, err := Analyze(a)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < Lanes; l++ {
			vals := laneValues(rng, a)
			var kind string
			switch trial % 4 {
			case 0: // zero every off-diagonal stored value of one row
				kind = "zero multipliers"
				row := rng.Intn(n)
				for p := a.RowPtr[row]; p < a.RowPtr[row+1]; p++ {
					if a.Col[p] != row {
						vals[l][p] = math.Copysign(0, float64(rng.Intn(2))-0.5)
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
				for p := a.RowPtr[orig]; p < a.RowPtr[orig+1]; p++ {
					if a.Col[p] == orig {
						vals[l][p] -= uval[s.up[step]]
					}
				}
			case 2:
				kind = "Inf entry"
				vals[l][rng.Intn(len(vals[l]))] = math.Inf(2*rng.Intn(2) - 1)
			default:
				kind = "NaN entry"
				vals[l][rng.Intn(len(vals[l]))] = math.NaN()
			}
			ok := checkLanes(t, fmt.Sprintf("trial %d n=%d %s in lane %d", trial, n, kind, l), a, vals, laneRHS(rng, n))
			if kind == "zero pivot" && !ok[l] {
				singular++
			}
		}
	}
	if singular < 10 {
		t.Fatalf("only %d of 60 cancelled pivots made their lane singular", singular)
	}
}

// FuzzLanesMatchScalar mutates patterns, values and special entries:
// every lane of the lane kernels must stay bit for bit the scalar
// kernels on its own matrix. specials is read in pairs: a stored
// position (scaled into range) and a value kind written there in lane
// kind%Lanes.
func FuzzLanesMatchScalar(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(40), []byte{})
	f.Add(int64(2), uint8(30), uint8(10), []byte{3, 0, 9, 5, 200, 10})
	f.Add(int64(3), uint8(1), uint8(0), []byte{0, 7})
	f.Add(int64(4), uint8(20), uint8(90), []byte{17, 14, 40, 3, 41, 11, 90, 12})
	f.Fuzz(func(t *testing.T, seed int64, size, density uint8, specials []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size%48)
		a := FromDense(randDiagDominant(rng, n, float64(density%100)/200))
		vals := laneValues(rng, a)
		kinds := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, 1e300, -1}
		for i := 0; i+1 < len(specials) && i < 32; i += 2 {
			p := int(specials[i]) * len(a.Val) / 256
			k := int(specials[i+1])
			vals[k%Lanes][p] = kinds[(k/Lanes)%len(kinds)]
		}
		checkLanes(t, "fuzz", a, vals, laneRHS(rng, n))
	})
}
