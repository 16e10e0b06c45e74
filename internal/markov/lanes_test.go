package markov

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg/sparse"
	"repro/internal/obs"
)

// refillOutcome refills c with rates through program (ApplyRates, as a
// refiller's Refill does), fills it into b's cell and reports the panic
// or error.
func refillOutcome(b *BatchSolver, c *Chain, program []int, cell int, rates []float64) (failed string) {
	defer func() {
		if p := recover(); p != nil {
			failed = fmt.Sprint("panic: ", p)
		}
	}()
	c.ApplyRates(program, rates)
	if err := b.Fill(cell, c); err != nil {
		return err.Error()
	}
	return ""
}

// Solve's lane fill holds every lane's row bit for bit as Fill writes it
// for the refilled chain (written out by the lane program), and passes
// a block exactly when Fill accepts every lane's refilled chain: with a
// negative rate (the refill panics), a transient row with no outgoing
// rate, an unreachable absorbing state, a NaN rate or a negative-zero
// rate in one lane, at every lane position.
func TestLaneFillMatchesFill(t *testing.T) {
	defer SetSparseMinStates(SetSparseMinStates(1))
	const k = 20 // 21 transient rows: the sparse route at crossover 1
	c := newLadder(k, 0.9)
	program, emit := ladderProgram(t, c, k)
	mid, _ := c.StateIndex("4")
	variants := []struct {
		name  string
		fails bool // Fill refuses the lane
		edit  func(rates []float64)
	}{
		{"valid", false, func([]float64) {}},
		{"negative rate", true, func(r []float64) { r[5] = -1 }},
		{"row 4, which a skip edge bypasses, without an outgoing rate", true, func(r []float64) {
			for e, edge := range program {
				if c.ptr[mid] <= edge && edge < c.ptr[mid+1] {
					r[e] = 0
				}
			}
		}},
		{"loss unreachable", true, func(r []float64) { r[len(r)-1] = 0 }},
		{"NaN rate", false, func(r []float64) { r[0] = math.NaN() }},
		{"negative-zero rate", false, func(r []float64) { r[2] = math.Copysign(0, -1) }},
	}
	block, ref := NewBatchSolver(), NewBatchSolver()
	for _, b := range []*BatchSolver{block, ref} {
		if err := b.Bind(context.Background(), c); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		if err := b.BindProgram(program, identityClasses(len(program))); err != nil {
			t.Fatalf("BindProgram: %v", err)
		}
	}
	if block.lp == nil {
		t.Fatal("no lane program bound on the sparse route")
	}
	for _, v := range variants {
		for lane := 0; lane < sparse.Lanes; lane++ {
			var rates [sparse.Lanes][]float64
			ok := true
			for l := range rates {
				rates[l] = emit(0.3 + float64(l))
				if l == lane {
					v.edit(rates[l])
				}
				if refillOutcome(ref, c, program, l, rates[l]) != "" {
					ok = false
				}
			}
			name := fmt.Sprintf("%s in lane %d", v.name, lane)
			if ok == v.fails {
				t.Fatalf("%s: Fill accepts every lane: %v", name, ok)
			}
			if got := block.fillLanes(rates[:]); got != ok {
				t.Fatalf("%s: lane fill %v, Fill accepts every lane: %v", name, got, ok)
			}
			if !ok {
				continue
			}
			row := make([]float64, block.nnz)
			for l := range rates {
				block.lp.prog.ValuesInto(row, block.tab, l)
				for i, x := range ref.vals[l*ref.nnz : (l+1)*ref.nnz] {
					if math.Float64bits(row[i]) != math.Float64bits(x) {
						t.Fatalf("%s: lane %d slot %d = %v, Fill %v", name, l, i, row[i], x)
					}
				}
			}
		}
	}
}

// Solve commits every lane of well-conditioned four-cell blocks with
// SolveCell's bits, and a chunk solved in Solve calls accounts exactly
// as one solved cell by cell through Fill and SolveCell: solves, sparse
// solves, fallbacks and the last residual, here the last block's last
// lane's, written out of the lane table. Off the sparse route Solve
// takes the one-cell path for every cell.
func TestSolveBlockMatchesSolveCellBitwise(t *testing.T) {
	for _, route := range []struct {
		name      string
		crossover int
		lanes     bool
	}{
		{"sparse", 1, true},
		{"dense", 1 << 30, false},
	} {
		t.Run(route.name, func(t *testing.T) {
			prev := SetSparseMinStates(route.crossover)
			defer SetSparseMinStates(prev)
			const k, cells = 40, 8
			c := newLadder(k, 1)
			program, emit := ladderProgram(t, c, k)
			type outcome struct {
				mtta     [cells]float64
				counters [3]int64
				residual uint64
			}
			run := func(blocks bool) outcome {
				reg := obs.NewRegistry()
				tr := obs.NewTracer()
				tr.SetFold(obs.NewSpanFolder(reg))
				ctx, root := tr.Start(context.Background(), "test")
				b := NewBatchSolver()
				if err := b.Bind(ctx, c); err != nil {
					t.Fatalf("Bind: %v", err)
				}
				if err := b.BindProgram(program, identityClasses(len(program))); err != nil {
					t.Fatalf("BindProgram: %v", err)
				}
				if got := b.lp != nil; got != route.lanes {
					t.Fatalf("lane program bound: %v, want %v", got, route.lanes)
				}
				rates := func(i int) []float64 { return emit(0.05 + 1.7*float64(i)) }
				var o outcome
				end := b.StartChunk(ctx)
				for i := 0; i < cells; i++ {
					if blocks && i%sparse.Lanes == 0 {
						vals := make([][]float64, sparse.Lanes)
						for l := range vals {
							vals[l] = rates(i + l)
						}
						mtta, n, err := b.Solve(vals)
						if n != sparse.Lanes || err != nil {
							t.Fatalf("Solve(%d) solved %d cells: %v", i, n, err)
						}
						if b.SolvedInLanes() != route.lanes {
							t.Fatalf("Solve(%d) in lanes: %v", i, !route.lanes)
						}
						copy(o.mtta[i:], mtta[:])
					}
					if blocks {
						continue
					}
					c.ApplyRates(program, rates(i))
					if err := b.Fill(0, c); err != nil {
						t.Fatalf("Fill %d: %v", i, err)
					}
					v, err := b.SolveCell(0)
					if err != nil {
						t.Fatalf("SolveCell %d: %v", i, err)
					}
					o.mtta[i] = v
				}
				end(true)
				root.End()
				for j, name := range []string{"markov.absorption.solves", "markov.sparse.solves", "markov.sparse.dense_fallbacks"} {
					o.counters[j] = reg.Counter(name).Value()
				}
				o.residual = math.Float64bits(reg.Gauge("markov.absorption.last_residual").Value())
				return o
			}
			want, got := run(false), run(true)
			if got != want {
				t.Fatalf("blocks %+v, cell by cell %+v", got, want)
			}
			if want.residual == 0 {
				t.Fatal("the chunk recorded no residual")
			}
		})
	}
}
