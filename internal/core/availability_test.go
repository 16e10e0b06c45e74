package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/params"
)

func TestExposureProfilesBaseline(t *testing.T) {
	p := params.Baseline()
	for _, cfg := range SensitivityConfigs() {
		exp, err := Exposure(p, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if len(exp.FractionByDepth) != cfg.NodeFaultTolerance+1 {
			t.Errorf("%v: %d depths, want %d", cfg, len(exp.FractionByDepth), cfg.NodeFaultTolerance+1)
		}
		var sum float64
		prev := math.Inf(1)
		for depth, f := range exp.FractionByDepth {
			if f < 0 || f > 1 {
				t.Errorf("%v depth %d: fraction %v", cfg, depth, f)
			}
			// Deeper degradation must be rarer.
			if f > prev {
				t.Errorf("%v: depth %d fraction %v exceeds depth %d's %v", cfg, depth, f, depth-1, prev)
			}
			prev = f
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: fractions sum to %v", cfg, sum)
		}
		// Healthy systems spend almost all of their life healthy.
		if exp.Availability() < 0.99 {
			t.Errorf("%v: availability %v, want > 0.99", cfg, exp.Availability())
		}
		if exp.MTTDLHours <= 0 {
			t.Errorf("%v: MTTDL %v", cfg, exp.MTTDLHours)
		}
	}
}

func TestExposureStringAndDepths(t *testing.T) {
	p := params.Baseline()
	exp, err := Exposure(p, Config{Internal: InternalNone, NodeFaultTolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := exp.String()
	if !strings.Contains(s, "depth0=") || !strings.Contains(s, "depth2=") {
		t.Errorf("String() = %q", s)
	}
}

// Exposure sums τ/MTTA per depth; the sum must not depend on map
// iteration order, so repeated calls return the same bits.
func TestExposureDeterministic(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 3}
	first, err := Exposure(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 50; call++ {
		exp, err := Exposure(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for depth, f := range exp.FractionByDepth {
			if math.Float64bits(f) != math.Float64bits(first.FractionByDepth[depth]) {
				t.Fatalf("call %d depth %d: fraction %v, first call %v", call, depth, f, first.FractionByDepth[depth])
			}
		}
	}
}

// Every exact-chain quantity reads off one factorization: the MTTA
// Absorption reports (and Exposure, nsr-chains and the sensitivities
// with it) is MTTA's, bit for bit, also on the deep chains that take
// the sparse route.
func TestAbsorptionMatchesMTTA(t *testing.T) {
	for _, driveMTTF := range []float64{200_000, 40_000} {
		for k := 5; k <= 7; k++ {
			p := params.Baseline()
			p.RedundancySetSize = 48
			p.DriveMTTFHours = driveMTTF
			chain, err := Chain(p, Config{Internal: InternalNone, NodeFaultTolerance: k})
			if err != nil {
				t.Fatal(err)
			}
			mtta, err := markov.MTTA(context.Background(), chain)
			if err != nil {
				t.Fatalf("drive MTTF %g, ft %d: MTTA: %v", driveMTTF, k, err)
			}
			res, err := markov.Absorption(chain)
			if err != nil {
				t.Fatalf("drive MTTF %g, ft %d: Absorption: %v", driveMTTF, k, err)
			}
			if res.MeanTimeToAbsorption != mtta {
				t.Errorf("drive MTTF %g, ft %d: Absorption MTTA %v, MTTA %v", driveMTTF, k, res.MeanTimeToAbsorption, mtta)
			}
		}
	}
}

func TestStateDepth(t *testing.T) {
	cases := map[string]int{
		"0":   0,
		"2":   2,
		"12":  12,
		"00":  0,
		"N0":  1,
		"Nd":  2,
		"ddN": 3,
	}
	for name, want := range cases {
		if got := stateDepth(name); got != want {
			t.Errorf("stateDepth(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestExposureErrors(t *testing.T) {
	p := params.Baseline()
	p.NodeMTTFHours = 0
	if _, err := Exposure(p, Config{Internal: InternalNone, NodeFaultTolerance: 2}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Exposure(params.Baseline(), Config{NodeFaultTolerance: 2}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestElasticitiesBaselineFT2IR5(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalRAID5, NodeFaultTolerance: 2}
	es, err := Elasticities(context.Background(), p, cfg, MethodClosedForm, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]float64, len(es))
	for _, e := range es {
		byName[e.Parameter] = e.Value
	}
	// Node-failure-dominated at FT2+RAID5: events ≈ ∝ λ_N³, so the node
	// MTTF elasticity should sit near -3.
	if e := byName["node MTTF"]; e > -2 || e < -3.5 {
		t.Errorf("node MTTF elasticity = %v, want ≈ -3", e)
	}
	// Drive MTTF barely matters (the paper's RAID6-vs-RAID5 argument).
	if e := math.Abs(byName["drive MTTF"]); e > 1 {
		t.Errorf("drive MTTF elasticity = %v, want |E| < 1", e)
	}
	// Bigger rebuild blocks help (negative elasticity), since the
	// baseline block is below the drive-transfer saturation point.
	if e := byName["rebuild block size"]; e >= 0 {
		t.Errorf("rebuild block elasticity = %v, want negative", e)
	}
	// Link speed is past the crossover at baseline: zero elasticity.
	if e := math.Abs(byName["link speed"]); e > 1e-9 {
		t.Errorf("link speed elasticity = %v, want 0 (disk-limited)", e)
	}
	// More rebuild bandwidth always helps.
	if e := byName["rebuild bandwidth share"]; e >= 0 {
		t.Errorf("rebuild bandwidth elasticity = %v, want negative", e)
	}
}

func TestElasticitiesNIRDriveMTTFMatters(t *testing.T) {
	p := params.Baseline()
	es, err := Elasticities(context.Background(), p, Config{Internal: InternalNone, NodeFaultTolerance: 2}, MethodClosedForm, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if e.Parameter == "drive MTTF" {
			// Without internal RAID, drives are first-class failure
			// sources: material negative elasticity.
			if e.Value > -0.5 {
				t.Errorf("drive MTTF elasticity = %v, want < -0.5", e.Value)
			}
			return
		}
	}
	t.Fatal("drive MTTF elasticity missing")
}

func TestElasticitiesStepValidation(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	for _, step := range []float64{-0.1, 0.5, 0.9} {
		if _, err := Elasticities(context.Background(), p, cfg, MethodClosedForm, step); err == nil {
			t.Errorf("step %v accepted", step)
		}
	}
}

func TestElasticitiesSymmetricStepsAgree(t *testing.T) {
	// The central difference should be step-insensitive for smooth
	// regions: 0.5% and 2% steps must agree closely.
	p := params.Baseline()
	cfg := Config{Internal: InternalRAID5, NodeFaultTolerance: 2}
	a, err := Elasticities(context.Background(), p, cfg, MethodClosedForm, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Elasticities(context.Background(), p, cfg, MethodClosedForm, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Parameter == "rebuild block size" {
			// The block-size response has a kink at the IOPS/transfer
			// saturation point; skip the smoothness check there.
			continue
		}
		if math.Abs(a[i].Value-b[i].Value) > 0.15 {
			t.Errorf("%s: elasticity %v (0.5%%) vs %v (2%%)", a[i].Parameter, a[i].Value, b[i].Value)
		}
	}
}
