package model

import (
	"context"
	"testing"

	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/params"
	"repro/internal/rebuild"
)

func baselineFlat(k int) FlatIRInputs {
	p := params.Baseline()
	rates := rebuild.Compute(p, k)
	return FlatIRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode, K: k,
		LambdaN:    p.NodeFailureRate(),
		LambdaD:    p.DriveFailureRate(),
		MuN:        rates.NodeRebuild,
		MuRestripe: rates.Restripe,
		CHER:       p.CHER(),
	}
}

func TestFlatIRChainStructure(t *testing.T) {
	in := baselineFlat(2)
	c := FlatIRChain(in)
	// (K+1) i-levels × (N-i+1) j-values each, plus loss.
	want := 1
	for i := 0; i <= in.K; i++ {
		want += in.N - i + 1
	}
	if got := c.NumStates(); got != want {
		t.Errorf("states = %d, want %d", got, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("flat chain invalid: %v", err)
	}
}

// The flat joint model must agree with the paper's hierarchical
// decomposition at baseline — quantifying that the hierarchy is a sound
// approximation when restripes are fast relative to failures.
func TestFlatMatchesHierarchicalBaseline(t *testing.T) {
	for k := 1; k <= 3; k++ {
		in := baselineFlat(k)
		flat, err := markov.MTTA(context.Background(), FlatIRChain(in))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		hier, err := markov.MTTA(context.Background(), IRChain(HierarchicalIRInputs(in), k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if rel := linalg.RelDiff(flat, hier); rel > 0.10 {
			t.Errorf("k=%d: flat %v vs hierarchical %v differ by %.1f%%", k, flat, hier, 100*rel)
		}
	}
}

// Under stress — restripes as slow as node rebuilds and hot drives — the
// hierarchical decomposition degrades, but in the *safe* direction: it
// treats every restriping array as a persistent λ_D/λ_S hazard, while the
// joint model knows restripes complete. Measured: ~60% pessimistic at 30×
// drive failure rate and 5× slower restripes. Pin the direction and a
// factor-3 bound.
func TestFlatVsHierarchicalStressed(t *testing.T) {
	in := baselineFlat(2)
	in.LambdaD *= 30   // hot drives: restripes frequent
	in.MuRestripe /= 5 // and slow
	flat, err := markov.MTTA(context.Background(), FlatIRChain(in))
	if err != nil {
		t.Fatal(err)
	}
	hier, err := markov.MTTA(context.Background(), IRChain(HierarchicalIRInputs(in), 2))
	if err != nil {
		t.Fatal(err)
	}
	if hier > flat*1.05 {
		t.Errorf("hierarchy optimistic under stress: hier %v > flat %v", hier, flat)
	}
	if hier < flat/3 {
		t.Errorf("hierarchy off by more than 3×: hier %v vs flat %v", hier, flat)
	}
	t.Logf("stressed hierarchy conservatism: flat %v vs hierarchical %v", flat, hier)
}

func TestFlatIRChainPanics(t *testing.T) {
	in := baselineFlat(2)
	in.K = 0
	defer func() {
		if recover() == nil {
			t.Fatal("invalid K accepted")
		}
	}()
	FlatIRChain(in)
}

// Sector errors and array failures can only hurt.
func TestFlatMonotoneInDriveHazards(t *testing.T) {
	in := baselineFlat(2)
	base, err := markov.MTTA(context.Background(), FlatIRChain(in))
	if err != nil {
		t.Fatal(err)
	}
	in.CHER = 0
	noUE, err := markov.MTTA(context.Background(), FlatIRChain(in))
	if err != nil {
		t.Fatal(err)
	}
	if noUE < base {
		t.Errorf("removing UEs reduced MTTDL: %v < %v", noUE, base)
	}
	in = baselineFlat(2)
	in.LambdaD *= 10
	hot, err := markov.MTTA(context.Background(), FlatIRChain(in))
	if err != nil {
		t.Fatal(err)
	}
	if hot > base {
		t.Errorf("hotter drives increased MTTDL: %v > %v", hot, base)
	}
}
