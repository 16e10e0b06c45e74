package sim

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/closedform"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
)

// acceleratedNIR returns a failure-accelerated no-internal-RAID scenario
// whose naive simulation is cheap, plus the matching chain inputs.
func acceleratedNIR(t int) (Scenario, closedform.NIRInputs) {
	sc := Scenario{
		N: 8, R: 4, D: 3, T: t, ParityDrives: 0,
		LambdaN: 1e-3, LambdaD: 2e-3,
		MuN: 2, MuD: 5,
		CHER:   0.01,
		Repair: RepairExponential,
	}
	in := closedform.NIRInputs{
		N: sc.N, R: sc.R, D: sc.D,
		LambdaN: sc.LambdaN, LambdaD: sc.LambdaD,
		MuN: sc.MuN, MuD: sc.MuD,
		CHER: sc.CHER,
	}
	return sc, in
}

func TestScenarioValidate(t *testing.T) {
	sc, _ := acceleratedNIR(1)
	if err := sc.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	mutations := []func(*Scenario){
		func(s *Scenario) { s.N = 1 },
		func(s *Scenario) { s.D = 0 },
		func(s *Scenario) { s.R = 1 },
		func(s *Scenario) { s.R = 99 },
		func(s *Scenario) { s.T = 0 },
		func(s *Scenario) { s.T = 4 },
		func(s *Scenario) { s.ParityDrives = -1 },
		func(s *Scenario) { s.ParityDrives = 3 },
		func(s *Scenario) { s.LambdaN = 0 },
		func(s *Scenario) { s.MuD = 0 },
		func(s *Scenario) { s.Repair = 0 },
		func(s *Scenario) { s.CHER = -1 },
	}
	for i, mutate := range mutations {
		s := sc
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, s)
		}
	}
	// RAID parity bound applies with internal RAID.
	s := sc
	s.ParityDrives = 2
	s.D = 2
	if err := s.Validate(); err == nil {
		t.Error("parity >= drives accepted")
	}
}

func TestScenarioFromConfig(t *testing.T) {
	p := params.Baseline()
	cfg := core.Config{Internal: core.InternalRAID5, NodeFaultTolerance: 2}
	sc, err := ScenarioFromConfig(p, cfg, RepairExponential)
	if err != nil {
		t.Fatal(err)
	}
	if sc.N != 64 || sc.D != 12 || sc.T != 2 || sc.ParityDrives != 1 {
		t.Errorf("scenario geometry: %+v", sc)
	}
	if sc.MuRestripe <= 0 || sc.MuN <= 0 {
		t.Errorf("rates not derived: %+v", sc)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("derived scenario invalid: %v", err)
	}
	if _, err := ScenarioFromConfig(params.Parameters{}, cfg, RepairExponential); err == nil {
		t.Error("invalid params accepted")
	}
}

// The DES (concurrent repairs) must agree with the exact chain (LIFO
// repairs) when failure rates are well separated from repair rates — the
// regime where the paper's models claim validity.
func TestDESMatchesChainNIRFaultTolerance1(t *testing.T) {
	sc, in := acceleratedNIR(1)
	want, err := markov.MTTA(context.Background(), model.NIRChain(in, 1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(11)), 4000, 1_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.MeanHours - want); diff > 5*est.StdErr+0.10*want {
		t.Errorf("DES %v ± %v vs chain %v", est.MeanHours, est.StdErr, want)
	}
}

// At fault tolerance 2 the DES and the chain differ *systematically*: the
// chain repairs failures last-in-first-out (one μ active), while the DES
// repairs concurrently, shortening multi-failure windows. The Markov model
// is therefore conservative by a bounded factor at FT >= 2 — an ablation
// the paper doesn't report. Pin the direction and size of the gap.
func TestDESChainLIFOConservatismFaultTolerance2(t *testing.T) {
	sc, in := acceleratedNIR(2)
	want, err := markov.MTTA(context.Background(), model.NIRChain(in, 2))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(12)), 1500, 5_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := est.MeanHours / want
	if ratio < 1.0 || ratio > 2.5 {
		t.Errorf("DES/chain ratio = %v (DES %v ± %v, chain %v), want conservative chain: ratio in [1.0, 2.5]",
			ratio, est.MeanHours, est.StdErr, want)
	}
}

// Internal-RAID scenario against the hierarchical chain.
func TestDESMatchesChainInternalRAID5(t *testing.T) {
	sc := Scenario{
		N: 8, R: 4, D: 4, T: 1, ParityDrives: 1,
		LambdaN: 1e-3, LambdaD: 5e-3,
		MuN: 2, MuD: 5, MuRestripe: 5,
		CHER:   0.02,
		Repair: RepairExponential,
	}
	arr := closedform.ArrayInputs{D: sc.D, LambdaD: sc.LambdaD, MuD: sc.MuRestripe, CHER: sc.CHER}
	in := closedform.IRInputs{
		N: sc.N, R: sc.R,
		LambdaN:      sc.LambdaN,
		LambdaArray:  closedform.ArrayFailureRate(1, arr),
		LambdaSector: closedform.SectorErrorRate(1, arr),
		MuN:          sc.MuN,
	}
	want, err := markov.MTTA(context.Background(), model.IRChain(in, 1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(13)), 1200, 10_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.MeanHours - want); diff > 5*est.StdErr+0.20*want {
		t.Errorf("DES %v ± %v vs hierarchical chain %v", est.MeanHours, est.StdErr, want)
	}
}

// Internal RAID 6 scenario against the hierarchical chain: the
// double-parity array path (degraded up to 2 during restripe).
func TestDESMatchesChainInternalRAID6(t *testing.T) {
	sc := Scenario{
		N: 8, R: 4, D: 5, T: 1, ParityDrives: 2,
		LambdaN: 1e-3, LambdaD: 2e-2, // fast drives so array failures matter
		MuN: 2, MuD: 5, MuRestripe: 2,
		CHER:   0.02,
		Repair: RepairExponential,
	}
	arr := closedform.ArrayInputs{D: sc.D, LambdaD: sc.LambdaD, MuD: sc.MuRestripe, CHER: sc.CHER}
	in := closedform.IRInputs{
		N: sc.N, R: sc.R,
		LambdaN:      sc.LambdaN,
		LambdaArray:  closedform.ArrayFailureRate(2, arr),
		LambdaSector: closedform.SectorErrorRate(2, arr),
		MuN:          sc.MuN,
	}
	want, err := markov.MTTA(context.Background(), model.IRChain(in, 1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(20)), 800, 10_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	// The hierarchical decomposition is itself an approximation; accept a
	// wider band than the no-RAID comparisons.
	ratio := est.MeanHours / want
	if ratio < 0.6 || ratio > 1.7 {
		t.Errorf("DES %v ± %v vs hierarchical RAID6 chain %v (ratio %v)",
			est.MeanHours, est.StdErr, want, ratio)
	}
}

// Deterministic repair should not differ wildly from exponential repair in
// a separated regime (the Markov exponential-repair assumption is mild).
func TestDESRepairDistributionAblation(t *testing.T) {
	scExp, _ := acceleratedNIR(1)
	scDet := scExp
	scDet.Repair = RepairDeterministic
	expEst, err := EstimateMTTDL(t.Context(), scExp, rand.New(rand.NewSource(14)), 2500, 1_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	detEst, err := EstimateMTTDL(t.Context(), scDet, rand.New(rand.NewSource(15)), 2500, 1_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := detEst.MeanHours / expEst.MeanHours
	if ratio < 0.7 || ratio > 2.0 {
		t.Errorf("deterministic/exponential MTTDL ratio = %v, want within [0.7, 2.0]", ratio)
	}
}

func TestRunUntilLossTooReliable(t *testing.T) {
	sc, _ := acceleratedNIR(1)
	sc.LambdaN = 1e-9
	sc.LambdaD = 1e-9
	sc.CHER = 0 // overlapping failures are then essentially impossible
	_, err := RunUntilLoss(sc, rand.New(rand.NewSource(16)), 2000, nil)
	if err == nil || !strings.Contains(err.Error(), "biased estimator") {
		t.Errorf("err = %v, want max-events guidance", err)
	}
}

func TestEstimateMTTDLValidation(t *testing.T) {
	sc, _ := acceleratedNIR(1)
	if _, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(1)), 1, 100, Observer{}); err == nil {
		t.Error("trials=1 accepted")
	}
	bad := sc
	bad.T = 0
	if _, err := EstimateMTTDL(t.Context(), bad, rand.New(rand.NewSource(1)), 10, 100, Observer{}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// With CHER = 0 and fault tolerance 1, data loss requires two overlapping
// failures; the simulated MTTDL must exceed the mean time to the second
// failure and track the chain.
func TestDESNoSectorErrors(t *testing.T) {
	sc, in := acceleratedNIR(1)
	sc.CHER = 0
	in.CHER = 0
	want, err := markov.MTTA(context.Background(), model.NIRChain(in, 1))
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMTTDL(t.Context(), sc, rand.New(rand.NewSource(17)), 2000, 2_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(est.MeanHours - want); diff > 5*est.StdErr+0.10*want {
		t.Errorf("DES %v ± %v vs chain %v", est.MeanHours, est.StdErr, want)
	}
}

// Higher fault tolerance must lengthen simulated MTTDL.
func TestDESMonotoneInFaultTolerance(t *testing.T) {
	sc1, _ := acceleratedNIR(1)
	sc2, _ := acceleratedNIR(2)
	est1, err := EstimateMTTDL(t.Context(), sc1, rand.New(rand.NewSource(18)), 1000, 1_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	est2, err := EstimateMTTDL(t.Context(), sc2, rand.New(rand.NewSource(19)), 1000, 5_000_000, Observer{})
	if err != nil {
		t.Fatal(err)
	}
	if est2.MeanHours <= est1.MeanHours {
		t.Errorf("t=2 MTTDL %v not above t=1 %v", est2.MeanHours, est1.MeanHours)
	}
}

func TestEstimateRelHalfWidth(t *testing.T) {
	e := Estimate{MeanHours: 100, StdErr: 10}
	if got := e.RelHalfWidth95(); math.Abs(got-0.196) > 1e-12 {
		t.Errorf("RelHalfWidth95 = %v", got)
	}
	if !math.IsInf(Estimate{}.RelHalfWidth95(), 1) {
		t.Error("zero-mean estimate should report +Inf")
	}
}
