package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/markov"
	"repro/internal/model"
)

// Array-level discrete-event simulation — the RAID-5/6 chain oracle: it
// validates the Section 4 RAID formulas (Figure 1 and Figure 4 chains, λ_D
// and λ_S) mechanistically, independent of the chain formulation. The
// array has d drives protected by m parity drives; a drive failure
// triggers a restripe during which the surviving drives are read in full
// (possibly hitting uncorrectable errors) and further failures may exceed
// the parity. Fail-in-place with spare replenishment keeps the at-risk
// population at d, matching the models' constant-d assumption.

// ArrayScenario fixes one simulated array.
type ArrayScenario struct {
	// D is the number of drives, Parity the tolerated failures (1 =
	// RAID 5, 2 = RAID 6).
	D, Parity int
	// LambdaD is the per-drive failure rate, MuRestripe the restripe
	// completion rate.
	LambdaD, MuRestripe float64
	// CHER is the expected uncorrectable errors per full-drive read.
	CHER float64
	// Repair selects the restripe duration distribution.
	Repair RepairDistribution
}

// Validate reports the first problem.
func (sc ArrayScenario) Validate() error {
	switch {
	case sc.Parity < 1 || sc.Parity > 2:
		return fmt.Errorf("sim: parity %d out of range [1,2]", sc.Parity)
	case sc.D <= sc.Parity:
		return fmt.Errorf("sim: %d drives cannot carry %d parity", sc.D, sc.Parity)
	case sc.LambdaD <= 0 || sc.MuRestripe <= 0:
		return fmt.Errorf("sim: rates must be positive")
	case sc.CHER < 0:
		return fmt.Errorf("sim: negative CHER")
	case sc.Repair != RepairExponential && sc.Repair != RepairDeterministic:
		return fmt.Errorf("sim: unknown repair distribution %d", sc.Repair)
	}
	return nil
}

// RunArrayUntilLoss simulates one array trajectory to data loss and
// returns the elapsed hours. The dynamics mirror the paper's chain
// semantics: with RAID 5 the uncorrectable-error exposure h = (d-1)·C·HER
// is charged when the (first) failure arrives; with RAID 6 it is charged
// when a second concurrent failure makes the rebuild critical
// (h = (d-2)·C·HER); failures beyond the parity lose data outright.
func RunArrayUntilLoss(sc ArrayScenario, rng *rand.Rand, maxEvents int) (float64, error) {
	if err := sc.Validate(); err != nil {
		return 0, err
	}
	var (
		now      float64
		degraded int // failed drives not yet restriped away
	)
	hFor := func(survivors int) float64 {
		h := float64(survivors) * sc.CHER
		if h > 1 {
			h = 1
		}
		return h
	}
	repair := func() float64 {
		if sc.Repair == RepairDeterministic {
			return 1 / sc.MuRestripe
		}
		return rng.ExpFloat64() / sc.MuRestripe
	}
	var restripeAt float64 = -1
	for events := 0; events < maxEvents; events++ {
		liveRate := float64(sc.D-degraded) * sc.LambdaD
		nextFail := now + rng.ExpFloat64()/liveRate
		if restripeAt >= 0 && restripeAt < nextFail {
			// Restripe completes; redundancy restored, spares absorb the
			// capacity loss (population returns to d).
			now = restripeAt
			restripeAt = -1
			degraded = 0
			continue
		}
		now = nextFail
		degraded++
		if degraded > sc.Parity {
			return now, nil
		}
		// The arriving failure makes the rebuild critical exactly when
		// the remaining margin is zero.
		if degraded == sc.Parity {
			if rng.Float64() < hFor(sc.D-degraded) {
				return now, nil
			}
		}
		if restripeAt < 0 {
			restripeAt = now + repair()
		}
	}
	return 0, fmt.Errorf("sim: array survived %d events; use accelerated rates", maxEvents)
}

// EstimateArrayMTTDL aggregates repeated array trajectories through the
// shared Welford accumulator.
func EstimateArrayMTTDL(sc ArrayScenario, rng *rand.Rand, trials, maxEventsPerTrial int) (Estimate, error) {
	if trials < 2 {
		return Estimate{}, fmt.Errorf("sim: need at least 2 trials, got %d", trials)
	}
	var w welford
	for i := 0; i < trials; i++ {
		t, err := RunArrayUntilLoss(sc, rng, maxEventsPerTrial)
		if err != nil {
			return Estimate{}, fmt.Errorf("trial %d: %w", i, err)
		}
		w.observe(t)
	}
	return Estimate{
		Trials:    trials,
		MeanHours: w.mean,
		StdErr:    math.Sqrt(w.variance() / float64(trials)),
	}, nil
}

func acceleratedArray(parity int) (ArrayScenario, closedform.ArrayInputs) {
	sc := ArrayScenario{
		D: 8, Parity: parity,
		LambdaD: 2e-3, MuRestripe: 1,
		CHER:   0.005,
		Repair: RepairExponential,
	}
	in := closedform.ArrayInputs{
		D: sc.D, LambdaD: sc.LambdaD, MuD: sc.MuRestripe, CHER: sc.CHER,
	}
	return sc, in
}

func TestArrayScenarioValidate(t *testing.T) {
	sc, _ := acceleratedArray(1)
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	mutations := []func(*ArrayScenario){
		func(s *ArrayScenario) { s.Parity = 0 },
		func(s *ArrayScenario) { s.Parity = 3 },
		func(s *ArrayScenario) { s.D = 1 },
		func(s *ArrayScenario) { s.LambdaD = 0 },
		func(s *ArrayScenario) { s.MuRestripe = 0 },
		func(s *ArrayScenario) { s.CHER = -1 },
		func(s *ArrayScenario) { s.Repair = 0 },
	}
	for i, mutate := range mutations {
		s := sc
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// The mechanistic array simulation must reproduce the Figure 1 chain's
// exact MTTDL.
func TestArraySimMatchesRAID5Chain(t *testing.T) {
	sc, in := acceleratedArray(1)
	want, err := markov.MTTA(context.Background(), model.RAID5Chain(in))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateArrayMTTDL(sc, rand.New(rand.NewSource(61)), 6000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.MeanHours - want); diff > 5*est.StdErr+0.05*want {
		t.Errorf("array DES %v ± %v vs RAID5 chain %v", est.MeanHours, est.StdErr, want)
	}
}

// ...and the Figure 4 chain for RAID 6.
func TestArraySimMatchesRAID6Chain(t *testing.T) {
	sc, in := acceleratedArray(2)
	want, err := markov.MTTA(context.Background(), model.RAID6Chain(in))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateArrayMTTDL(sc, rand.New(rand.NewSource(62)), 3000, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// RAID 6 has a mild LIFO-vs-batched-restripe modelling gap; allow 15%.
	if diff := math.Abs(est.MeanHours - want); diff > 5*est.StdErr+0.15*want {
		t.Errorf("array DES %v ± %v vs RAID6 chain %v", est.MeanHours, est.StdErr, want)
	}
}

func TestArraySimRAID6BeatsRAID5(t *testing.T) {
	sc1, _ := acceleratedArray(1)
	sc2, _ := acceleratedArray(2)
	est1, err := EstimateArrayMTTDL(sc1, rand.New(rand.NewSource(63)), 2000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := EstimateArrayMTTDL(sc2, rand.New(rand.NewSource(64)), 2000, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if est2.MeanHours <= est1.MeanHours {
		t.Errorf("RAID6 sim %v not above RAID5 sim %v", est2.MeanHours, est1.MeanHours)
	}
}

func TestArraySimTooReliable(t *testing.T) {
	sc, _ := acceleratedArray(2)
	sc.LambdaD = 1e-9
	sc.CHER = 0
	if _, err := RunArrayUntilLoss(sc, rand.New(rand.NewSource(65)), 1000); err == nil {
		t.Error("expected max-events error")
	}
}

func TestEstimateArrayValidation(t *testing.T) {
	sc, _ := acceleratedArray(1)
	rng := rand.New(rand.NewSource(1))
	if _, err := EstimateArrayMTTDL(sc, rng, 1, 100); err == nil {
		t.Error("trials=1 accepted")
	}
	bad := sc
	bad.D = 0
	if _, err := EstimateArrayMTTDL(bad, rng, 10, 100); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// TestEstimateArrayStdErrMatchesTwoPass checks the Welford fold against a
// two-pass reference over the same trajectories.
func TestEstimateArrayStdErrMatchesTwoPass(t *testing.T) {
	sc, _ := acceleratedArray(1)
	const trials, seed = 500, 66
	est, err := EstimateArrayMTTDL(sc, rand.New(rand.NewSource(seed)), trials, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, trials)
	var mean float64
	for i := range xs {
		if xs[i], err = RunArrayUntilLoss(sc, rng, 1_000_000); err != nil {
			t.Fatal(err)
		}
		mean += xs[i]
	}
	mean /= trials
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	want := math.Sqrt(m2 / (trials - 1) / trials)
	if rel := math.Abs(est.StdErr-want) / want; rel > 1e-12 {
		t.Errorf("StdErr %v vs two-pass %v (rel %v)", est.StdErr, want, rel)
	}
	if rel := math.Abs(est.MeanHours-mean) / mean; rel > 1e-12 {
		t.Errorf("mean %v vs two-pass %v (rel %v)", est.MeanHours, mean, rel)
	}
}
