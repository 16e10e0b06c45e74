package markov_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/closedform"
	"repro/internal/markov"
	"repro/internal/model"
)

// threeStates builds a frozen a→b→loss chain with a back edge b→a; the
// rates decide whether it is valid.
func threeStates(ab, ba, bLoss float64) *markov.Chain {
	c := markov.NewChain()
	c.SetInitial("a")
	c.SetAbsorbing("loss")
	c.AddEdge("a", "b", ab)
	c.AddEdge("b", "a", ba)
	c.AddEdge("b", "loss", bLoss)
	return c.Freeze()
}

// nirInputs is a k = 3 NIR cell; with clamp set, C·HER is large enough
// (d = 12, R close to N) that h_α is clamped to 1 on node-heavy words.
func nirInputs(clamp bool) closedform.NIRInputs {
	in := closedform.NIRInputs{
		N: 20, R: 19, D: 12,
		LambdaN: 2e-6, LambdaD: 3e-6, MuN: 0.05, MuD: 0.2,
		CHER: 1e-4,
	}
	if clamp {
		in.CHER = 0.5
	}
	return in
}

// threeStatesProgram is threeStates' refill program: its AddEdge order.
func threeStatesProgram(c *markov.Chain) []int {
	return []int{c.EdgeIndex("a", "b"), c.EdgeIndex("b", "a"), c.EdgeIndex("b", "loss")}
}

// threeStatesClasses is threeStatesProgram's identity class map.
var threeStatesClasses = []int{0, 1, 2}

// The fused fill reports exactly what Validate reports for the filled
// chain — the same error message, or nil — whether it fills from the
// chain (Fill) or from the emitted rate vector (FillRates). A chain that
// does not match the bound topology is a programming error: Fill panics.
func TestBatchValidateRatesParity(t *testing.T) {
	cases := []struct {
		name string
		// bind returns the chain to bind; check returns the chain to
		// fill after binding (often the same chain, refilled), and its
		// emitted class values, program and class map when it has them.
		bind, check func() *markov.Chain
		emit        func() (vals []float64, program, class []int)
		wantErr     bool
		wantPanic   bool
	}{
		{
			name:  "valid",
			bind:  func() *markov.Chain { return threeStates(1, 2, 3) },
			check: func() *markov.Chain { return threeStates(4, 5, 6) },
			emit: func() ([]float64, []int, []int) {
				return []float64{4, 5, 6}, threeStatesProgram(threeStates(1, 2, 3)), threeStatesClasses
			},
		},
		{
			name:  "zero exit rate",
			bind:  func() *markov.Chain { return threeStates(1, 2, 3) },
			check: func() *markov.Chain { return threeStates(1, 0, 0) },
			emit: func() ([]float64, []int, []int) {
				return []float64{1, 0, 0}, threeStatesProgram(threeStates(1, 2, 3)), threeStatesClasses
			},
			wantErr: true,
		},
		{
			name:  "loss unreachable",
			bind:  func() *markov.Chain { return threeStates(1, 2, 3) },
			check: func() *markov.Chain { return threeStates(1, 2, 0) },
			emit: func() ([]float64, []int, []int) {
				return []float64{1, 2, 0}, threeStatesProgram(threeStates(1, 2, 3)), threeStatesClasses
			},
			wantErr: true,
		},
		{
			name:  "NaN rate on the only path to loss",
			bind:  func() *markov.Chain { return threeStates(1, 2, 3) },
			check: func() *markov.Chain { return threeStates(1, 2, math.NaN()) },
			emit: func() ([]float64, []int, []int) {
				return []float64{1, 2, math.NaN()}, threeStatesProgram(threeStates(1, 2, 3)), threeStatesClasses
			},
			wantErr: true,
		},
		{
			name: "NIR refilled at h clamp",
			bind: func() *markov.Chain {
				r := model.AcquireNIRRefiller(nirInputs(false), 3)
				return r.Chain()
			},
			check: func() *markov.Chain {
				r := model.AcquireNIRRefiller(nirInputs(false), 3)
				return r.Refill(nirInputs(true))
			},
			emit: func() ([]float64, []int, []int) {
				r := model.AcquireNIRRefiller(nirInputs(false), 3)
				return r.Emit(nil, nirInputs(true)), r.Program(), r.Classes()
			},
		},
		{
			name: "not the bound topology",
			bind: func() *markov.Chain { return threeStates(1, 2, 3) },
			check: func() *markov.Chain {
				c := markov.NewChain()
				c.SetInitial("x")
				c.SetAbsorbing("loss")
				c.AddEdge("x", "y", 1)
				c.AddEdge("y", "loss", 1)
				c.State("z") // dangling: only the full Validate sees it
				return c.Freeze()
			},
			wantErr:   true,
			wantPanic: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := markov.NewBatchSolver()
			if err := b.Bind(context.Background(), tc.bind()); err != nil {
				t.Fatalf("Bind: %v", err)
			}
			c := tc.check()
			want := c.Validate()
			if (want != nil) != tc.wantErr {
				t.Fatalf("Validate = %v, want error %v", want, tc.wantErr)
			}
			if tc.wantPanic {
				defer func() {
					if recover() == nil {
						t.Fatal("Fill accepted a chain of another topology")
					}
				}()
				b.Fill(0, c) //nolint:errcheck // must panic
				return
			}
			same := func(fn string, got error) {
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Fatalf("%s = %v, Validate = %v; want identical", fn, got, want)
				}
			}
			same("Fill", b.Fill(0, c))
			rates, program, class := tc.emit()
			if err := b.BindProgram(program, class); err != nil {
				t.Fatalf("BindProgram: %v", err)
			}
			same("FillRates", b.FillRates(0, rates))
		})
	}
}

// The fused fill runs once per batched cell, validation included: it
// must not allocate.
func TestBatchValidateRatesZeroAllocs(t *testing.T) {
	in := nirInputs(false)
	r := model.AcquireNIRRefiller(in, 5)
	defer r.Release()
	b := markov.NewBatchSolver()
	if err := b.Bind(context.Background(), r.Chain()); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := b.BindProgram(r.Program(), r.Classes()); err != nil {
		t.Fatalf("BindProgram: %v", err)
	}
	rates := r.Emit(nil, in)
	if err := b.FillRates(0, rates); err != nil {
		t.Fatalf("FillRates: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.FillRates(0, rates) }); n != 0 {
		t.Errorf("FillRates allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.Fill(0, r.Chain()) }); n != 0 {
		t.Errorf("Fill allocates %v times per run, want 0", n)
	}
}
