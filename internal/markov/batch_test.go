package markov

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/linalg/sparse"
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
					if err := b.Fill(i, c); err != nil {
						t.Fatalf("k=%d Fill %d: %v", k, i, err)
					}
				}
				end := b.StartChunk(context.Background())
				for i := range thetas {
					got, err := b.SolveCell(i)
					if err != nil {
						t.Fatalf("k=%d SolveCell %d: %v", k, i, err)
					}
					if got != want[i] {
						t.Fatalf("k=%d cell %d: batch %v != per-cell %v", k, i, got, want[i])
					}
				}
				end(true)
			}
		})
	}
}

// The batch hot path must be allocation-free per cell after warmup: a
// one-cell Solve — the fused fill of an emitted rate vector, with its
// validation, and the solve — runs in reused storage, and so does a
// four-cell block's emission into the lane buffers and its Solve (the
// lane program on the sparse route, four one-cell solves on the dense
// route). A rebind of a cached topology (Bind, BindProgram) allocates
// nothing either, and compiles nothing: it binds the cached lane
// program. This is the per-cell half of the "zero per-cell allocation"
// contract (a chunk's first setup — Bind, BindProgram, StartChunk — is
// amortized and may allocate).
func TestBatchSolverZeroAllocsPerCell(t *testing.T) {
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
			const k = 24
			c := newLadder(k, 1.7)
			program, emitRates := ladderProgram(t, c, k)
			rates := emitRates(1.7)
			b := NewBatchSolver()
			if err := b.Bind(context.Background(), c); err != nil {
				t.Fatalf("Bind: %v", err)
			}
			if err := b.BindProgram(program, identityClasses(len(program))); err != nil {
				t.Fatalf("BindProgram: %v", err)
			}
			if got := b.lp != nil; got != route.lanes {
				t.Fatalf("lane program bound: %v, want %v", got, route.lanes)
			}
			var solveErr error
			one := [][]float64{rates}
			cell := func() {
				if _, _, err := b.Solve(one); err != nil {
					solveErr = err
				}
			}
			lanes := make([][]float64, sparse.Lanes)
			for l := range lanes {
				lanes[l] = make([]float64, len(rates))
			}
			theta := 1.0
			block := func() {
				for l := range lanes { // the emission: class values into the lane buffers
					theta += 0.25
					for i, r := range rates {
						lanes[l][i] = r * theta
					}
				}
				if _, n, err := b.Solve(lanes); n != sparse.Lanes || err != nil {
					solveErr = fmt.Errorf("Solve solved %d cells: %v", n, err)
				}
			}
			lp, class := b.lp, identityClasses(len(program))
			rebind := func() {
				if err := b.Bind(context.Background(), c); err != nil {
					solveErr = err
					return
				}
				if err := b.BindProgram(program, class); err != nil {
					solveErr = err
				}
			}
			runs := map[string]func(){"batch cell": cell, "four-cell block": block, "rebind": rebind}
			for name, f := range runs {
				f() // warmup
				if solveErr != nil {
					t.Fatalf("%s warmup: %v", name, solveErr)
				}
				if n := testing.AllocsPerRun(200, f); n != 0 {
					t.Errorf("%s allocates %v times per run, want 0", name, n)
				}
				if solveErr != nil {
					t.Fatalf("%s: %v", name, solveErr)
				}
			}
			if b.lp != lp {
				t.Errorf("a rebind of the cached topology compiled a new lane program")
			}
		})
	}
}

// identityClasses is the identity class map of n emissions: the class vector is
// the emitted rate vector.
func identityClasses(n int) []int {
	class := make([]int, n)
	for i := range class {
		class[i] = i
	}
	return class
}

// ladderProgram records the ladder builder's emission order as a refill
// program (emission i fills edge program[i]), and emit returns θ's rates
// in that order.
func ladderProgram(t *testing.T, c *Chain, k int) (program []int, emit func(theta float64) []float64) {
	t.Helper()
	st := strconv.Itoa
	record := func(from, to string) {
		e := c.EdgeIndex(from, to)
		if e < 0 {
			t.Fatalf("edge %s→%s not in topology", from, to)
		}
		program = append(program, e)
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
	emit = func(theta float64) []float64 {
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
	return program, emit
}

// Solve's one-cell fill writes, bit for bit, what ApplyRates followed
// by Fill writes — including for zero and negative-zero emissions — and
// fails with the same validation error.
func TestSolveFillMatchesApplyRatesFill(t *testing.T) {
	const k = 11
	c := newLadder(k, 0.9)
	program, emit := ladderProgram(t, c, k)
	b, ref := NewBatchSolver(), NewBatchSolver()
	for _, s := range []*BatchSolver{b, ref} {
		if err := s.Bind(context.Background(), c); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		if err := s.BindProgram(program, identityClasses(len(program))); err != nil {
			t.Fatalf("BindProgram: %v", err)
		}
	}
	for _, theta := range []float64{0.01, 1.0, 37.5, 0} {
		rates := emit(theta)
		if theta == 1 {
			rates[2] = math.Copysign(0, -1) // a skip edge at -0
		}
		c.ApplyRates(program, rates)
		want := ref.Fill(0, c)
		_, _, got := b.Solve([][]float64{rates})
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("θ=%v: Solve error %v, Fill error %v", theta, got, want)
		}
		if want != nil {
			continue
		}
		for i := 0; i < b.nnz; i++ {
			if math.Float64bits(b.vals[i]) != math.Float64bits(ref.vals[i]) {
				t.Fatalf("θ=%v slot %d: Solve %v, Fill %v", theta, i, b.vals[i], ref.vals[i])
			}
		}
	}
}

// BindProgram refuses a program that does not give every bound edge
// exactly one emission; Solve without a compiled program panics.
func TestBindProgramRefusesNonPermutations(t *testing.T) {
	c := newLadder(5, 1)
	b := NewBatchSolver()
	if err := b.Bind(context.Background(), c); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	identity := make([]int, len(c.edges))
	for i := range identity {
		identity[i] = i
	}
	dup := append([]int(nil), identity...)
	dup[1] = dup[0]
	out := append([]int(nil), identity...)
	out[0] = len(identity)
	for name, program := range map[string][]int{
		"short":        identity[1:],
		"long":         append(append([]int(nil), identity...), 0),
		"duplicate":    dup,
		"out of range": out,
	} {
		if err := b.BindProgram(program, identityClasses(len(program))); err == nil {
			t.Errorf("%s: BindProgram accepted %v", name, program)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Solve after a refused program did not panic")
		}
	}()
	b.Solve([][]float64{make([]float64, len(identity))}) //nolint:errcheck // must panic
}

// A negative emitted rate panics with ApplyRates' message.
func TestSolveNegativeRatePanics(t *testing.T) {
	const k = 4
	c := newLadder(k, 1)
	program, emit := ladderProgram(t, c, k)
	rates := emit(1)
	rates[3] = -2
	panicOf := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	b := NewBatchSolver()
	if err := b.Bind(context.Background(), c); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := b.BindProgram(program, identityClasses(len(program))); err != nil {
		t.Fatalf("BindProgram: %v", err)
	}
	want := panicOf(func() { c.ApplyRates(program, rates) })
	got := panicOf(func() { b.Solve([][]float64{rates}) }) //nolint:errcheck // must panic
	if want == nil || got != want {
		t.Fatalf("Solve panic %v, ApplyRates panic %v", got, want)
	}
}

// ApplyRates with a program compiled from the builder's emission order
// reproduces a fresh build: same edges, same accumulation order,
// bit-identical rates and exit sums.
func TestApplyRatesMatchesStringRefill(t *testing.T) {
	const k = 11
	c := newLadder(k, 0.9)
	program, emit := ladderProgram(t, c, k)
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

// An edge out of a state marked absorbing after the edge was added is
// no part of R: the fill skips it, as the chain's own absorption matrix
// does.
func TestFillSkipsEdgesOutOfAbsorbingStates(t *testing.T) {
	c := NewChain()
	c.SetInitial("a")
	c.AddEdge("a", "x", 1)
	c.AddEdge("x", "b", 2)
	c.AddEdge("b", "a", 3)
	c.AddEdge("b", "x", 0.5)
	c.SetAbsorbing("x")
	c.Freeze()
	got, err := MTTA(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("MTTA = %v, want 1 (a leaves at rate 1 straight into x)", got)
	}
	b := NewBatchSolver()
	if err := b.Bind(context.Background(), c); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := b.BindProgram([]int{0, 1, 2, 3}, identityClasses(4)); err != nil {
		t.Fatalf("BindProgram: %v", err)
	}
	rates := []float64{1, -2, 3, 0.5} // x→b is emission 1: never read, still checked
	defer func() {
		if recover() == nil {
			t.Fatal("Solve accepted a negative rate on an edge out of an absorbing state")
		}
	}()
	b.Solve([][]float64{rates}) //nolint:errcheck // must panic
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

// dedupe turns an emitted rate vector into a class map and class vector:
// emissions whose rates have the same bits share a class.
func dedupe(rates []float64) (class []int, vals []float64) {
	seen := map[uint64]int{}
	for _, r := range rates {
		c, ok := seen[math.Float64bits(r)]
		if !ok {
			c = len(vals)
			seen[math.Float64bits(r)] = c
			vals = append(vals, r)
		}
		class = append(class, c)
	}
	return class, vals
}

// A program bound with a class map fills, validates and panics exactly
// as the chain refilled with the expanded rates fills: bit-identical
// slab rows from Solve's one-cell fill and rows written out of its lane
// table, against Fill's; the same error; ApplyRates' first-negative
// panic.
func TestClassMapFillMatchesExpandedRates(t *testing.T) {
	defer SetSparseMinStates(SetSparseMinStates(1))
	const k = 20 // 21 transient rows: the sparse route at crossover 1
	c := newLadder(k, 0.9)
	program, emit := ladderProgram(t, c, k)
	bind := func(class []int) *BatchSolver {
		b := NewBatchSolver()
		if err := b.Bind(context.Background(), c); err != nil {
			t.Fatalf("Bind: %v", err)
		}
		if err := b.BindProgram(program, class); err != nil {
			t.Fatalf("BindProgram: %v", err)
		}
		return b
	}
	panicOf := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	rows := func(b *BatchSolver, cells int) []uint64 {
		var out []uint64
		for _, v := range b.vals[:cells*b.nnz] {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	tableRows := func(b *BatchSolver) []uint64 {
		var out []uint64
		row := make([]float64, b.nnz)
		for l := 0; l < sparse.Lanes; l++ {
			for _, v := range b.lp.prog.ValuesInto(row, b.tab, l) {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		edit  func([]float64)
		fails bool
	}{
		{"valid", func([]float64) {}, false},
		{"zero rates", func(r []float64) { r[0], r[3] = 0, 0 }, false},
		{"-0 rate", func(r []float64) { r[2] = math.Copysign(0, -1) }, false},
		{"no exit", func(r []float64) {
			for i := range r {
				r[i] = 0
			}
		}, true},
		{"loss unreachable", func(r []float64) { r[len(r)-1] = 0 }, true},
		{"negative", func(r []float64) { r[5], r[7] = -1, -2 }, true},
	} {
		rates := emit(0.3)
		tc.edit(rates)
		class, vals := dedupe(rates)
		if len(vals) >= len(rates) {
			t.Fatalf("%s: %d classes for %d emissions; the map must share classes", tc.name, len(vals), len(rates))
		}
		ref, cm := bind(identityClasses(len(program))), bind(class)
		var wantErr, gotErr error
		want := panicOf(func() {
			c.ApplyRates(program, rates)
			wantErr = ref.Fill(0, c)
		})
		got := panicOf(func() { _, _, gotErr = cm.Solve([][]float64{vals}) })
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: class map gives (%v, %v), refilled chain (%v, %v)", tc.name, got, gotErr, want, wantErr)
		}
		if (want != nil || wantErr != nil) != tc.fails {
			t.Fatalf("%s: refilled chain gives (%v, %v), want failure %v", tc.name, want, wantErr, tc.fails)
		}
		lanes := [][]float64{vals, vals, vals, vals}
		if tc.fails {
			if cm.fillLanes(lanes) {
				t.Fatalf("%s: the lane fill accepted a failing lane", tc.name)
			}
			continue
		}
		if w, g := rows(ref, 1), rows(cm, 1); !slices.Equal(w, g) {
			t.Fatalf("%s: class-map row differs from the refilled chain's row", tc.name)
		}
		for l := 1; l < sparse.Lanes; l++ {
			ref.Fill(l, c) //nolint:errcheck // valid above
		}
		if !cm.fillLanes(lanes) {
			t.Fatalf("%s: the lane fill refused valid class values", tc.name)
		}
		if w, g := rows(ref, sparse.Lanes), tableRows(cm); !slices.Equal(w, g) {
			t.Fatalf("%s: lane table rows differ from Fill rows", tc.name)
		}
	}
}

// With every value positive the fill takes Bind's reachability verdict
// instead of a search: on a topology whose absorbing state no path
// reaches, that verdict is the error Validate reports, from Solve's
// one-cell fill and from its lane fill alike. Eight feeder states put
// the chain on the sparse route, where the lane fill runs.
func TestFillReachabilityShortcut(t *testing.T) {
	defer SetSparseMinStates(SetSparseMinStates(1))
	c := NewChain()
	c.SetInitial("a")
	c.SetAbsorbing("loss")
	c.AddEdge("a", "b", 1)
	c.AddEdge("b", "a", 2)
	c.AddEdge("c", "loss", 3)
	c.AddEdge("c", "a", 4)
	for i := 0; i < 8; i++ {
		c.AddEdge(fmt.Sprintf("d%d", i), "a", 1)
	}
	c.Freeze()
	want := c.Validate()
	if want == nil {
		t.Fatal("Validate accepted a chain whose loss state is unreachable")
	}
	b := NewBatchSolver()
	if err := b.Bind(context.Background(), c); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if b.reachAll {
		t.Fatal("Bind: loss reachable over the whole topology")
	}
	vals := []float64{1, 2, 3, 4, 1, 1, 1, 1, 1, 1, 1, 1}
	if err := b.BindProgram(identityClasses(len(vals)), identityClasses(len(vals))); err != nil {
		t.Fatalf("BindProgram: %v", err)
	}
	if b.lp == nil {
		t.Fatal("the chain does not solve in lane blocks")
	}
	if _, _, got := b.Solve([][]float64{vals}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Solve = %v, Validate = %v", got, want)
	}
	if b.fillLanes([][]float64{vals, vals, vals, vals}) {
		t.Fatal("the lane fill accepted an unreachable loss state")
	}
}

// BindProgram refuses a class map that does not give every emission one
// class: too short, too long, or with a negative class.
func TestBindProgramRefusesBadClassMaps(t *testing.T) {
	c := newLadder(5, 1)
	b := NewBatchSolver()
	if err := b.Bind(context.Background(), c); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	program := identityClasses(len(c.edges))
	negative := identityClasses(len(program))
	negative[2] = -1
	for name, class := range map[string][]int{
		"short":    identityClasses(len(program) - 1),
		"long":     identityClasses(len(program) + 1),
		"negative": negative,
	} {
		if err := b.BindProgram(program, class); err == nil {
			t.Errorf("%s: BindProgram accepted class map %v", name, class)
		}
	}
}
