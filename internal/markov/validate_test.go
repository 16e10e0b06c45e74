package markov_test

import (
	"context"
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

// ValidateRates reports exactly what Validate reports — the same error
// message, or nil — whether the chain is validated against the bound
// topology or (when it does not match) through the full Validate.
func TestBatchValidateRatesParity(t *testing.T) {
	cases := []struct {
		name string
		// bind returns the chain to bind; check returns the chain to
		// validate after binding (often the same chain, refilled).
		bind, check func() *markov.Chain
		wantErr     bool
	}{
		{
			name:  "valid",
			bind:  func() *markov.Chain { return threeStates(1, 2, 3) },
			check: func() *markov.Chain { return threeStates(4, 5, 6) },
		},
		{
			name:    "zero exit rate",
			bind:    func() *markov.Chain { return threeStates(1, 2, 3) },
			check:   func() *markov.Chain { return threeStates(1, 0, 0) },
			wantErr: true,
		},
		{
			name:    "loss unreachable",
			bind:    func() *markov.Chain { return threeStates(1, 2, 3) },
			check:   func() *markov.Chain { return threeStates(1, 2, 0) },
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
			wantErr: true,
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
			got := b.ValidateRates(c)
			if (want != nil) != tc.wantErr {
				t.Fatalf("Validate = %v, want error %v", want, tc.wantErr)
			}
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("ValidateRates = %v, Validate = %v; want identical", got, want)
			}
		})
	}
}

// ValidateRates runs once per batched cell: it must not allocate.
func TestBatchValidateRatesZeroAllocs(t *testing.T) {
	in := nirInputs(false)
	r := model.AcquireNIRRefiller(in, 5)
	defer r.Release()
	b := markov.NewBatchSolver()
	if err := b.Bind(context.Background(), r.Chain()); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := b.ValidateRates(r.Chain()); err != nil {
		t.Fatalf("ValidateRates: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = b.ValidateRates(r.Chain()) }); n != 0 {
		t.Errorf("ValidateRates allocates %v times per run, want 0", n)
	}
}
