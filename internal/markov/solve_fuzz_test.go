package markov_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg/sparse"
	"repro/internal/markov"
	"repro/internal/model"
)

// fuzzSpecial is the class value a fuzz byte picks: kind%6 selects zero,
// a subnormal, an ordinary rate, a huge rate, +Inf or NaN, and kind/6
// scales it. None is negative: a negative rate panics by contract.
func fuzzSpecial(kind byte) float64 {
	mag := float64(kind / 6)
	switch kind % 6 {
	case 0:
		return 0
	case 1:
		return math.SmallestNonzeroFloat64 * (1 + mag)
	case 2:
		return (1 + mag) / 64
	case 3:
		return 1e300 * (1 + mag/64)
	case 4:
		return math.Inf(1)
	default:
		return math.NaN()
	}
}

// Solve over one to four cells of the ft 5 NIR class map (63 transient
// states, the sparse route) reports what the one-cell loop reports:
// refill the chain with each cell's class values, Fill and SolveCell,
// stopping at the first cell that fails or whose MTTA is not positive
// and finite. Both give the same solved count, the same MTTA bits and
// the same error text. Each cell's class values start from ordinary
// rates, and each three-byte group of data sets one class of one cell
// to a fuzzSpecial value.
func FuzzSolveMatchesCellLoop(f *testing.F) {
	f.Add(uint8(3), []byte{})                                                 // four ordinary cells: the lane program
	f.Add(uint8(2), []byte{})                                                 // three: the one-cell path
	f.Add(uint8(3), []byte{1, 4, 5})                                          // a NaN class in lane 1
	f.Add(uint8(3), []byte{2, 0, 0, 2, 1, 0})                                 // zero classes in lane 2
	f.Add(uint8(3), []byte{0, 3, 3, 3, 7, 4})                                 // huge and +Inf classes
	f.Add(uint8(0), []byte{0, 9, 1})                                          // one cell with a subnormal class
	f.Add(uint8(3), []byte{3, 12, 0, 3, 13, 0, 3, 14, 0, 3, 15, 0, 3, 16, 0}) // a depth's classes at 0
	f.Fuzz(func(t *testing.T, cells uint8, data []byte) {
		n := int(cells)%sparse.Lanes + 1
		r := model.AcquireNIRRefiller(laneInputs(0), 5)
		defer r.Release()
		b, ref := markov.AcquireBatchSolver(), markov.AcquireBatchSolver()
		defer markov.ReleaseBatchSolver(b)
		defer markov.ReleaseBatchSolver(ref)
		for _, s := range []*markov.BatchSolver{b, ref} {
			if err := s.Bind(context.Background(), r.Chain()); err != nil {
				t.Fatalf("Bind: %v", err)
			}
			if err := s.BindProgram(r.Program(), r.Classes()); err != nil {
				t.Fatalf("BindProgram: %v", err)
			}
		}
		vals := make([][]float64, n)
		for l := range vals {
			vals[l] = r.Emit(nil, laneInputs(float64(l)))
		}
		for ; len(data) >= 3; data = data[3:] {
			v := vals[int(data[0])%n]
			v[int(data[1])%len(v)] = fuzzSpecial(data[2])
		}

		var want [sparse.Lanes]float64
		wantN, wantErr := n, error(nil)
		for l, v := range vals {
			if err := refillFill(ref, r, v); err != nil {
				wantN, wantErr = l, err
				break
			}
			mtta, err := ref.SolveCell(0)
			if err != nil {
				wantN, wantErr = l, err
				break
			}
			want[l] = mtta
			if !(mtta > 0 && mtta < math.Inf(1)) {
				wantN = l + 1
				break
			}
		}

		got, gotN, gotErr := b.Solve(vals)
		if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Solve solved %d (%v), the one-cell loop %d (%v)", gotN, gotErr, wantN, wantErr)
		}
		for l := range wantN {
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
				t.Fatalf("cell %d: Solve MTTA %v, the one-cell loop %v", l, got[l], want[l])
			}
		}
	})
}
