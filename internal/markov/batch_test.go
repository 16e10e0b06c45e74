package markov

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// ladderEdges emits a refillable test family: a birth-death ladder of k
// transient rungs with periodic skip edges, all rates functions of θ.
// Built with AddEdge so the topology is a function of k alone and every
// θ lands on the same frozen pattern.
func ladderEdges(c *Chain, k int, theta float64) {
	st := strconv.Itoa
	for i := 0; i < k; i++ {
		c.AddEdge(st(i), st(i+1), theta*float64(i+1))
		if i > 0 {
			c.AddEdge(st(i), st(i-1), 1.0+theta)
		}
		if i%3 == 0 && i+2 <= k {
			c.AddEdge(st(i), st(i+2), theta*0.25)
		}
	}
	c.AddEdge(st(k), st(k-1), 2.5+theta)
	c.AddEdge(st(k), "loss", theta*0.5)
}

func newLadder(k int, theta float64) *Chain {
	c := NewChain()
	c.SetInitial("0")
	c.SetAbsorbing("loss")
	ladderEdges(c, k, theta)
	return c.Freeze()
}

// refillLadder refills c, a frozen k-rung ladder, with θ's rates.
func refillLadder(c *Chain, k int, theta float64) {
	copyRates(c, newLadder(k, theta))
}

// copyRates refills dst with src's rates through ApplyRates, edge for
// edge; both must come from one builder, so their edge arrays align.
func copyRates(dst, src *Chain) {
	program := make([]int, len(src.edges))
	rates := make([]float64, len(src.edges))
	for i, e := range src.edges {
		program[i], rates[i] = i, e.Rate
	}
	dst.ApplyRates(program, rates)
}

// The batch acceptance gate: a batched cell is bit-identical to the same
// chain solved one call at a time (solveChain, the body of MTTA), on both the dense and the
// sparse route.
func TestBatchSolverMatchesPerCellBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, route := range []struct {
		name      string
		crossover int
	}{
		{"sparse", 1},
		{"dense", 1 << 30},
	} {
		t.Run(route.name, func(t *testing.T) {
			prev := SetSparseMinStates(route.crossover)
			defer SetSparseMinStates(prev)
			for _, k := range []int{1, 3, 9, 40} {
				const cells = 17
				thetas := make([]float64, cells)
				for i := range thetas {
					thetas[i] = 0.05 + rng.Float64()*10
				}
				c := newLadder(k, thetas[0])
				want := make([]float64, cells)
				s := NewBatchSolver()
				for i, th := range thetas {
					refillLadder(c, k, th)
					v, err := s.solveChain(context.Background(), c)
					if err != nil {
						t.Fatalf("k=%d per-cell %d: %v", k, i, err)
					}
					want[i] = v
				}

				b := NewBatchSolver()
				refillLadder(c, k, thetas[0])
				if err := b.Bind(context.Background(), c); err != nil {
					t.Fatalf("k=%d Bind: %v", k, err)
				}
				b.Cells(cells)
				for i, th := range thetas {
					refillLadder(c, k, th)
					if err := b.ValidateRates(c); err != nil {
						t.Fatalf("k=%d ValidateRates %d: %v", k, i, err)
					}
					b.Fill(i, c)
				}
				end := b.StartChunk(context.Background(), cells)
				for i := range thetas {
					got, err := b.SolveCell(i)
					if err != nil {
						t.Fatalf("k=%d SolveCell %d: %v", k, i, err)
					}
					if got != want[i] {
						t.Fatalf("k=%d cell %d: batch %v != per-cell %v", k, i, got, want[i])
					}
				}
				end()
			}
		})
	}
}

// The batch hot path must be allocation-free per cell after warmup:
// refill (ApplyRates), validation, fill and solve all run in reused
// storage. This is the per-cell half of the "zero per-cell allocation"
// tentpole contract (chunk setup — Bind, StartChunk — is amortized and
// may allocate).
func TestBatchSolverZeroAllocsPerCell(t *testing.T) {
	for _, route := range []struct {
		name      string
		crossover int
	}{
		{"sparse", 1},
		{"dense", 1 << 30},
	} {
		t.Run(route.name, func(t *testing.T) {
			prev := SetSparseMinStates(route.crossover)
			defer SetSparseMinStates(prev)
			const k = 24
			c := newLadder(k, 1.7)
			// Compile a refill program covering every edge once.
			program := make([]int, len(c.edges))
			rates := make([]float64, len(c.edges))
			for i := range program {
				program[i] = i
				rates[i] = c.edges[i].Rate
			}
			b := NewBatchSolver()
			if err := b.Bind(context.Background(), c); err != nil {
				t.Fatalf("Bind: %v", err)
			}
			b.Cells(1)
			var solveErr error
			cell := func() {
				c.ApplyRates(program, rates)
				if err := b.ValidateRates(c); err != nil {
					solveErr = err
					return
				}
				b.Fill(0, c)
				if _, err := b.SolveCell(0); err != nil {
					solveErr = err
				}
			}
			cell() // warmup
			if solveErr != nil {
				t.Fatalf("warmup: %v", solveErr)
			}
			if n := testing.AllocsPerRun(200, cell); n != 0 {
				t.Errorf("batch cell allocates %v times per run, want 0", n)
			}
			if solveErr != nil {
				t.Fatalf("solve: %v", solveErr)
			}
		})
	}
}

// ApplyRates with a program compiled from the builder's emission order
// reproduces a fresh build: same edges, same accumulation order,
// bit-identical rates and exit sums.
func TestApplyRatesMatchesStringRefill(t *testing.T) {
	const k = 11
	c := newLadder(k, 0.9)
	// Record the builder's emission order as (edge index) program.
	var program []int
	st := strconv.Itoa
	record := func(from, to string) {
		e := c.EdgeIndex(from, to)
		if e < 0 {
			t.Fatalf("edge %s→%s not in topology", from, to)
		}
		program = append(program, e)
	}
	emit := func(theta float64) []float64 {
		var out []float64
		for i := 0; i < k; i++ {
			out = append(out, theta*float64(i+1))
			if i > 0 {
				out = append(out, 1.0+theta)
			}
			if i%3 == 0 && i+2 <= k {
				out = append(out, theta*0.25)
			}
		}
		out = append(out, 2.5+theta)
		out = append(out, theta*0.5)
		return out
	}
	for i := 0; i < k; i++ {
		record(st(i), st(i+1))
		if i > 0 {
			record(st(i), st(i-1))
		}
		if i%3 == 0 && i+2 <= k {
			record(st(i), st(i+2))
		}
	}
	record(st(k), st(k-1))
	record(st(k), "loss")

	for _, theta := range []float64{0.01, 1.0, 37.5} {
		want := newLadder(k, theta)
		c.ApplyRates(program, emit(999)) // scribble
		c.ApplyRates(program, emit(theta))
		for i, e := range c.edges {
			if e.Rate != want.edges[i].Rate {
				t.Fatalf("θ=%v edge %d: ApplyRates %v != fresh %v", theta, i, e.Rate, want.edges[i].Rate)
			}
		}
		for i, x := range c.exit {
			if x != want.exit[i] {
				t.Fatalf("θ=%v exit %d: ApplyRates %v != fresh %v", theta, i, x, want.exit[i])
			}
		}
	}
}

// A chain whose initial state is absorbing batches to MTTA 0, matching
// the per-cell path.
func TestBatchSolverAbsorbingInitial(t *testing.T) {
	c := NewChain()
	c.SetInitial("done")
	c.SetAbsorbing("done")
	c.State("x")
	c.AddEdge("x", "done", 1)
	c.Freeze()
	b := NewBatchSolver()
	if err := b.Bind(context.Background(), c); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	b.Cells(1)
	b.Fill(0, c)
	got, err := b.SolveCell(0)
	if err != nil || got != 0 {
		t.Fatalf("SolveCell = %v, %v; want 0, nil", got, err)
	}
}

func TestEdgeIndex(t *testing.T) {
	c := newLadder(3, 1)
	if i := c.EdgeIndex("0", "1"); i < 0 {
		t.Fatal("EdgeIndex(0→1) missing")
	}
	if i := c.EdgeIndex("0", "3"); i != -1 {
		t.Fatalf("EdgeIndex(0→3) = %d, want -1", i)
	}
	if i := c.EdgeIndex("nope", "1"); i != -1 {
		t.Fatalf("EdgeIndex(nope→1) = %d, want -1", i)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeIndex on unfrozen chain did not panic")
		}
	}()
	u := NewChain()
	u.AddRate("a", "b", 1)
	u.EdgeIndex("a", "b")
}

func ExampleBatchSolver() {
	c := newLadder(2, 1.5)
	b := NewBatchSolver()
	if err := b.Bind(context.Background(), c); err != nil {
		panic(err)
	}
	const cells = 3
	b.Cells(cells)
	for i, theta := range []float64{0.5, 1.5, 4.5} {
		refillLadder(c, 2, theta)
		b.Fill(i, c)
	}
	for i := 0; i < cells; i++ {
		v, _ := b.SolveCell(i)
		fmt.Printf("cell %d: MTTA %.3f\n", i, v)
	}
	// Output:
	// cell 0: MTTA 39.077
	// cell 1: MTTA 5.956
	// cell 2: MTTA 1.388
}
