package markov

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg/sparse"
	"repro/internal/obs"
)

// fillOutcome runs FillRates on cell and reports its panic or error.
func fillOutcome(b *BatchSolver, cell int, rates []float64) (failed string) {
	defer func() {
		if p := recover(); p != nil {
			failed = fmt.Sprint("panic: ", p)
		}
	}()
	if err := b.FillRates(cell, rates); err != nil {
		return err.Error()
	}
	return ""
}

// FillBlock's lane table holds every lane's row bit for bit as
// FillRates writes it (written out by the lane program), and FillBlock
// passes a block exactly when FillRates accepts every lane's rates:
// with a negative rate (FillRates panics), a transient row with no
// outgoing rate, an unreachable absorbing state, a NaN rate or a
// negative-zero rate in one lane, at every lane position.
func TestFillBlockMatchesFillRates(t *testing.T) {
	defer SetSparseMinStates(SetSparseMinStates(1))
	const k = 20 // 21 transient rows: the sparse route at crossover 1
	c := newLadder(k, 0.9)
	program, emit := ladderProgram(t, c, k)
	mid, _ := c.StateIndex("4")
	variants := []struct {
		name  string
		fails bool // FillRates refuses the lane
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
		b.Cells(sparse.Lanes)
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
				if fillOutcome(ref, l, rates[l]) != "" {
					ok = false
				}
			}
			name := fmt.Sprintf("%s in lane %d", v.name, lane)
			if ok == v.fails {
				t.Fatalf("%s: FillRates accepts every lane: %v", name, ok)
			}
			if got := block.FillBlock(&rates); got != ok {
				t.Fatalf("%s: FillBlock %v, FillRates accepts every lane: %v", name, got, ok)
			}
			if !ok {
				continue
			}
			row := make([]float64, block.nnz)
			for l := range rates {
				block.lp.prog.ValuesInto(row, block.tabs[block.cur], l)
				for i, x := range ref.vals[l*ref.nnz : (l+1)*ref.nnz] {
					if math.Float64bits(row[i]) != math.Float64bits(x) {
						t.Fatalf("%s: lane %d slot %d = %v, FillRates %v", name, l, i, row[i], x)
					}
				}
			}
		}
	}
}

// SolveBlock commits every lane of well-conditioned blocks with
// SolveCell's bits, and a chunk solved in blocks accounts exactly as
// one solved cell by cell: solves, sparse solves, fallbacks and the
// last residual, here the last block's last lane's, written out of its
// lane table. Off the sparse route FillBlock and SolveBlock do nothing.
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
				b.Cells(sparse.Lanes)
				if got := b.LaneBlocks(); got != route.lanes {
					t.Fatalf("LaneBlocks = %v, want %v", got, route.lanes)
				}
				rates := func(i int) []float64 { return emit(0.05 + 1.7*float64(i)) }
				var o outcome
				end := b.StartChunk(ctx)
				for i := 0; i < cells; {
					n := 0
					if blocks {
						var vals [sparse.Lanes][]float64
						for l := range vals {
							vals[l] = rates(i + l)
						}
						if b.FillBlock(&vals) != route.lanes {
							t.Fatalf("FillBlock(%d) = %v", i, !route.lanes)
						}
						var block [sparse.Lanes]float64
						n = b.SolveBlock(0, &block)
						if route.lanes != (n == sparse.Lanes) || !route.lanes && n != 0 {
							t.Fatalf("SolveBlock(%d) committed %d lanes", i, n)
						}
						copy(o.mtta[i:], block[:n])
					}
					if n == 0 {
						if err := b.FillRates(0, rates(i)); err != nil {
							t.Fatalf("FillRates %d: %v", i, err)
						}
						v, err := b.SolveCell(0)
						if err != nil {
							t.Fatalf("SolveCell %d: %v", i, err)
						}
						o.mtta[i], n = v, 1
					}
					i += n
				}
				end(cells)
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
		})
	}
}
