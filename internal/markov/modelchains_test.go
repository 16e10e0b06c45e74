package markov_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// The chain-level oracles of this package's tests (Lump, Simulate) checked
// on the model package's reliability chains.

// baselineNIR returns the paper's baseline no-internal-RAID inputs at
// fault tolerance t.
func baselineNIR(t int) closedform.NIRInputs {
	p := params.Baseline()
	rates := rebuild.Compute(p, t)
	return closedform.NIRInputs{
		N:       p.NodeSetSize,
		R:       p.RedundancySetSize,
		D:       p.DrivesPerNode,
		LambdaN: p.NodeFailureRate(),
		LambdaD: p.DriveFailureRate(),
		MuN:     rates.NodeRebuild,
		MuD:     rates.DriveRebuild,
		CHER:    p.CHER(),
	}
}

func mtta(t *testing.T, c *markov.Chain) float64 {
	t.Helper()
	got, err := markov.MTTA(context.Background(), c)
	if err != nil {
		t.Fatalf("MTTA: %v", err)
	}
	return got
}

// With symmetric node and drive dynamics (equal repair rates, no sector
// errors), the appendix's 2^(k+1)-1-state chain is *exactly lumpable* by
// failure depth, and the lump is the simple birth-death chain of the
// internal-RAID family with combined rate λ_N + d·λ_d — connecting the
// paper's two model families structurally.
func TestNIRLumpsToBirthDeathWhenSymmetric(t *testing.T) {
	in := baselineNIR(2)
	in.CHER = 0
	in.MuD = in.MuN // symmetric repairs
	full := model.NIRChain(in, 2)
	lumped, err := markov.Lump(full, markov.LumpByDepth(full), true, 1e-12)
	if err != nil {
		t.Fatalf("NIR chain not lumpable under symmetry: %v", err)
	}
	if lumped.NumStates() != 4 { // depths 0..2 + loss
		t.Errorf("lumped states = %d, want 4", lumped.NumStates())
	}
	wantFull, err := markov.MTTA(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	gotLumped, err := markov.MTTA(context.Background(), lumped)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.RelDiff(gotLumped, wantFull) > 1e-10 {
		t.Errorf("lumped MTTA %v vs full %v", gotLumped, wantFull)
	}
	// ...and it coincides with the IR birth-death chain at the combined
	// failure rate.
	ir := closedform.IRInputs{
		N: in.N, R: in.R,
		LambdaN:      in.LambdaN + float64(in.D)*in.LambdaD,
		LambdaArray:  0,
		LambdaSector: 0,
		MuN:          in.MuN,
	}
	wantIR, err := markov.MTTA(context.Background(), model.IRChain(ir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if linalg.RelDiff(gotLumped, wantIR) > 1e-10 {
		t.Errorf("lumped NIR %v vs IR birth-death %v", gotLumped, wantIR)
	}
}

// Monte Carlo cross-check: simulate the RAID 5 chain (fast absorption under
// accelerated failure rates) and compare with the analytic MTTA.
func TestRAID5ChainSimulationAgrees(t *testing.T) {
	in := closedform.ArrayInputs{D: 8, LambdaD: 0.01, MuD: 1, CHER: 0.01}
	c := model.RAID5Chain(in)
	want := mtta(t, c)
	est, err := markov.Simulate(c, rand.New(rand.NewSource(5)), 20_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MeanTime-want) > 5*est.StdErr {
		t.Errorf("simulated %v ± %v vs analytic %v", est.MeanTime, est.StdErr, want)
	}
}

// Simulate the NIR k=2 chain under accelerated failures.
func TestNIRChainSimulationAgrees(t *testing.T) {
	in := closedform.NIRInputs{
		N: 16, R: 5, D: 4,
		LambdaN: 0.001, LambdaD: 0.002,
		MuN: 0.5, MuD: 1.5,
		CHER: 0.01,
	}
	c := model.NIRChain(in, 2)
	want := mtta(t, c)
	est, err := markov.Simulate(c, rand.New(rand.NewSource(6)), 10_000, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MeanTime-want) > 5*est.StdErr {
		t.Errorf("simulated %v ± %v vs analytic %v", est.MeanTime, est.StdErr, want)
	}
}
