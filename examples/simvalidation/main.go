// Simulation validation: demonstrate both simulators against the exact
// chain solutions — the full-system discrete-event simulator in an
// accelerated-failure regime, and the rare-event (balanced failure
// biasing) estimator on a baseline-strength chain.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/closedform"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/sim"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Part 1: accelerated-failure DES vs exact chain.
	sc := sim.Scenario{
		N: 8, R: 4, D: 3, T: 1,
		LambdaN: 1e-3, LambdaD: 2e-3, MuN: 2, MuD: 5,
		CHER: 0.01, Repair: sim.RepairExponential,
	}
	in := closedform.NIRInputs{
		N: sc.N, R: sc.R, D: sc.D,
		LambdaN: sc.LambdaN, LambdaD: sc.LambdaD,
		MuN: sc.MuN, MuD: sc.MuD, CHER: sc.CHER,
	}
	chain := model.NIRChain(in, sc.T)
	exact, err := markov.MTTA(context.Background(), chain)
	if err != nil {
		log.Fatal(err)
	}
	est, err := sim.EstimateMTTDL(context.Background(), sc, rng, 3000, 1_000_000, sim.Observer{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("accelerated regime, FT 1, no internal RAID:")
	fmt.Printf("  exact chain MTTDL:   %.4g h\n", exact)
	fmt.Printf("  full-system DES:     %.4g ± %.2g h (%d trials)\n",
		est.MeanHours, 1.96*est.StdErr, est.Trials)

	// Part 2: rare-event estimation where naive simulation would need
	// ~10^5 repair cycles per loss event.
	rare := closedform.NIRInputs{
		N: 32, R: 8, D: 8,
		LambdaN: 2.5e-6, LambdaD: 3.3e-6,
		MuN: 0.25, MuD: 2,
		CHER: 0.024,
	}
	rareChain := model.NIRChain(rare, 2)
	rareExact, err := markov.MTTA(context.Background(), rareChain)
	if err != nil {
		log.Fatal(err)
	}
	biased, err := sim.EstimateMTTABiased(context.Background(), rareChain, rng, 50_000, 0.5, sim.RepairThreshold(rareChain))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbaseline-strength regime, FT 2, no internal RAID:")
	fmt.Printf("  exact chain MTTDL:   %.4g h (≈%.0f thousand years)\n",
		rareExact, rareExact/8766/1000)
	fmt.Printf("  biased estimator:    %.4g ± %.2g h (%d cycles, loss prob/cycle %.3g)\n",
		biased.MTTA, 1.96*biased.StdErr, biased.Cycles, biased.CycleLossProbability)
}
