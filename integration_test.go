package nsr

// Whole-stack integration: the analytic pipeline (Markov chain → transient
// solution) and the executable pipeline (synthetic failure trace → brick
// store with erasure coding → replay with a quiet-period rebuild window)
// are two independent implementations of the same overlap physics. This
// test checks that they predict compatible mission loss probabilities in
// an accelerated regime where both are measurable.
//
// Alignment: the replay repairs all outstanding failures at the first
// inter-event gap of at least W. Under Poisson arrivals of total rate λ_tot
// the expected outstanding time of an isolated failure is then
// (e^{λ_tot·W} - 1)/λ_tot, so the comparator chain uses that as its mean
// repair time for both node and drive failures.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/closedform"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/trace"
)

func TestWholeStackMissionLossProbability(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-stack Monte Carlo is slow")
	}
	// Node failures only (drive failures would need full stripe-space
	// coverage — d^R placements — which no finite object population
	// provides; see EXPERIMENTS.md on the even-distribution assumption).
	// Renewal traces keep the failure intensity constant, matching the
	// chain's fixed N.
	const (
		nodes   = 16
		drives  = 4
		rSet    = 8
		ft      = 2
		mttf    = 20_000.0 // node MTTF, hours
		mission = 17_532.0 // 2 years
		window  = 200.0    // replay rebuild window, hours
	)
	lambda := 1 / mttf
	lambdaTot := float64(nodes) * lambda
	// Effective repair time of the quiet-gap policy under Poisson
	// arrivals.
	repairHours := (math.Exp(lambdaTot*window) - 1) / lambdaTot

	in := closedform.NIRInputs{
		N: nodes, R: rSet, D: drives,
		LambdaN: lambda, LambdaD: 1e-15,
		MuN: 1 / repairHours, MuD: 1 / repairHours,
		CHER: 0,
	}
	chain := model.NIRChain(in, ft)
	analytic, err := markov.AbsorbedProbabilityByTime(context.Background(), chain, mission, markov.TransientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if analytic < 0.05 || analytic > 0.9 {
		t.Fatalf("regime miscalibrated: analytic P(loss) = %v", analytic)
	}

	const traces = 160
	losses := 0
	for seed := int64(0); seed < traces; seed++ {
		tr, err := trace.Generate(trace.GenerateOptions{
			Nodes: nodes, DrivesPerNode: drives,
			NodeMTTFHours:  mttf,
			DriveMTTFHours: 1e15, // node failures only
			HorizonHours:   mission,
			Seed:           seed,
			Renewals:       true, // constant failure intensity, like the chain
		})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := storage.NewSystem(storage.Config{
			Nodes: nodes, DrivesPerNode: drives,
			RedundancySetSize:  rSet,
			FaultTolerance:     ft,
			DriveCapacityBytes: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if err := sys.Put(fmt.Sprintf("obj-%02d", i), make([]byte, 4<<10)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := trace.Replay(t.Context(), tr, sys, trace.Policy{
			RebuildWindowHours: window,
			ReplenishNodes:     true, // the analytic models' constant-N assumption
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ObjectsLost > 0 || rep.UnreadableAtEnd > 0 {
			losses++
		}
	}
	mc := float64(losses) / traces

	// Two independent stacks with remaining second-order differences
	// (batched vs per-failure repair, LIFO chain structure, finite object
	// population, same-node drive collisions): require agreement within a
	// factor of 2.5.
	ratio := mc / analytic
	t.Logf("analytic P(loss) = %.3f, trace/storage Monte Carlo = %.3f (ratio %.2f)", analytic, mc, ratio)
	if mc == 0 {
		t.Fatalf("no losses in %d traces; analytic predicts %.3f", traces, analytic)
	}
	if ratio < 1/2.5 || ratio > 2.5 {
		t.Errorf("stacks disagree: analytic %.3f vs Monte Carlo %.3f", analytic, mc)
	}
}
