package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/params"
)

func TestMissionSurvivalBaselineFiveYears(t *testing.T) {
	p := params.Baseline()
	mission := 5 * params.HoursPerYear
	for _, cfg := range SensitivityConfigs() {
		r, err := MissionSurvival(context.Background(), p, cfg, mission, 100)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if r.LossProbability < 0 || r.LossProbability > 1 {
			t.Errorf("%v: P(loss) = %v", cfg, r.LossProbability)
		}
		// With repair ≫ failure the absorption time is very nearly
		// exponential; the exact transient probability and the
		// exponential approximation must agree tightly.
		if rel := math.Abs(r.LossProbability-r.ExponentialApprox) /
			math.Max(r.ExponentialApprox, 1e-300); rel > 0.05 {
			t.Errorf("%v: exact %v vs exponential %v differ by %.1f%%",
				cfg, r.LossProbability, r.ExponentialApprox, 100*rel)
		}
		if r.FleetLossProbability < r.LossProbability {
			t.Errorf("%v: fleet probability below single-system", cfg)
		}
	}
}

// The paper's target arithmetic: 100 systems × 5 years < 1 expected event.
// FT2+RAID5 should keep the whole fleet's loss probability tiny; FT2
// without internal RAID should show a material fleet risk.
func TestMissionFleetTargetStory(t *testing.T) {
	p := params.Baseline()
	mission := 5 * params.HoursPerYear
	safe, err := MissionSurvival(context.Background(), p, Config{Internal: InternalRAID5, NodeFaultTolerance: 2}, mission, 100)
	if err != nil {
		t.Fatal(err)
	}
	if safe.FleetLossProbability > 0.01 {
		t.Errorf("FT2+RAID5 fleet risk = %v, want < 1%%", safe.FleetLossProbability)
	}
	marginal, err := MissionSurvival(context.Background(), p, Config{Internal: InternalNone, NodeFaultTolerance: 2}, mission, 100)
	if err != nil {
		t.Fatal(err)
	}
	if marginal.FleetLossProbability < 0.1 {
		t.Errorf("FT2-NIR fleet risk = %v, want material (> 10%%)", marginal.FleetLossProbability)
	}
}

func TestMissionSurvivalMonotoneInHorizon(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	prev := -1.0
	for _, years := range []float64{1, 2, 5, 10} {
		r, err := MissionSurvival(context.Background(), p, cfg, years*params.HoursPerYear, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.LossProbability < prev {
			t.Errorf("loss probability decreased at %v years", years)
		}
		prev = r.LossProbability
	}
}

func TestMissionSurvivalValidation(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	if _, err := MissionSurvival(context.Background(), p, cfg, 0, 1); err == nil {
		t.Error("zero mission accepted")
	}
	if _, err := MissionSurvival(context.Background(), p, cfg, 100, 0); err == nil {
		t.Error("zero fleet accepted")
	}
	bad := p
	bad.DriveMTTFHours = -1
	if _, err := MissionSurvival(context.Background(), bad, cfg, 100, 1); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := MissionSurvival(context.Background(), p, Config{NodeFaultTolerance: 1}, 100, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

// The context reaches both solves: a pre-cancelled one returns
// ctx.Err(), and a call under a span parents the mean-time solve's
// "markov.solve" span to it.
func TestMissionSurvivalContext(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MissionSurvival(ctx, p, cfg, params.HoursPerYear, 1); !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Errorf("pre-cancelled MissionSurvival error = %v, want %v", err, ctx.Err())
	}

	tr := obs.NewTracer()
	ctx, root := tr.Start(context.Background(), "caller")
	if _, err := MissionSurvival(ctx, p, cfg, params.HoursPerYear, 1); err != nil {
		t.Fatal(err)
	}
	root.End()
	var rootID int64
	for _, sp := range tr.Spans() {
		if sp.Name == "caller" {
			rootID = sp.ID
		}
	}
	solves := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "markov.solve" {
			solves++
			if sp.Parent != rootID {
				t.Errorf("markov.solve span %d has parent %d, want the caller's span %d", sp.ID, sp.Parent, rootID)
			}
		}
	}
	if solves != 1 {
		t.Errorf("markov.solve spans = %d, want 1", solves)
	}
}

// Probabilities below the float64 epsilon keep their digits: at FT 3 +
// RAID 5 over one hour the loss probability is ~2e-17, where
// 1 - (1-p)^n rounds to 0, and the fleet probability must stay ≈ n·p;
// at FT 4 without internal RAID over 36 seconds T/MTTDL is ~2e-17,
// where 1 - exp(-T/MTTDL) rounds to 0, and the exponential
// approximation must stay ≈ T/MTTDL.
func TestMissionSurvivalTinyProbabilities(t *testing.T) {
	p := params.Baseline()
	const n = 100
	fleet, err := MissionSurvival(context.Background(), p, Config{Internal: InternalRAID5, NodeFaultTolerance: 3}, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if loss := fleet.LossProbability; !(loss > 0 && loss < 1e-16) {
		t.Fatalf("P(loss) = %g, want in (0, 1e-16) for this test to bite", loss)
	}
	want := n * fleet.LossProbability
	if got := fleet.FleetLossProbability; !(got > 0) || math.Abs(got-want) > 1e-12*want {
		t.Errorf("fleet P(loss) = %g, want %g (n·p) within 1e-12", got, want)
	}

	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 4}
	const hours = 0.01
	exact, err := AnalyzeCtx(context.Background(), p, cfg, MethodExactChain)
	if err != nil {
		t.Fatal(err)
	}
	x := hours / exact.MTTDLHours
	if !(x > 0 && x < 1e-16) {
		t.Fatalf("T/MTTDL = %g, want in (0, 1e-16) for this test to bite", x)
	}
	r, err := MissionSurvival(context.Background(), p, cfg, hours, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.ExponentialApprox; !(got > 0) || math.Abs(got-x) > 1e-12*x {
		t.Errorf("exponential approximation %g, want %g (T/MTTDL) within 1e-12", got, x)
	}
}

// No entry point passes an unusable MTTA on: RAID 6 at FT 5 exhausts
// float64 on the paper's baseline (the solve's MTTA is negative), and
// markov.MTTA, Absorption, RateSensitivities and ExpectedVisits all
// refuse it, as does MissionSurvival, which solves through MTTA.
func TestUnusableMTTAIsAnErrorEverywhere(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalRAID6, NodeFaultTolerance: 5}
	ch, err := Chain(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "not positive and finite"
	check := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, want)
		}
	}
	v, err := markov.MTTA(context.Background(), ch)
	check("MTTA", err)
	if v != 0 {
		t.Errorf("MTTA returned %g with its error, want 0", v)
	}
	_, err = markov.Absorption(ch)
	check("Absorption", err)
	_, err = markov.RateSensitivities(ch)
	check("RateSensitivities", err)
	_, err = markov.ExpectedVisits(ch)
	check("ExpectedVisits", err)
	_, err = MissionSurvival(context.Background(), p, cfg, 5*params.HoursPerYear, 100)
	check("MissionSurvival", err)
	if _, err := AnalyzeCtx(context.Background(), p, cfg, MethodExactChain); err == nil || !strings.Contains(err.Error(), "numerically unusable") {
		t.Errorf("AnalyzeCtx: error %v, want core's usability wording", err)
	}
}
