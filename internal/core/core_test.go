package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/params"
)

func TestConfigStrings(t *testing.T) {
	cases := map[string]Config{
		"FT 1, No Internal RAID": {Internal: InternalNone, NodeFaultTolerance: 1},
		"FT 2, Internal RAID 5":  {Internal: InternalRAID5, NodeFaultTolerance: 2},
		"FT 3, Internal RAID 6":  {Internal: InternalRAID6, NodeFaultTolerance: 3},
	}
	for want, cfg := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestParityDrives(t *testing.T) {
	if InternalNone.ParityDrives() != 0 || InternalRAID5.ParityDrives() != 1 || InternalRAID6.ParityDrives() != 2 {
		t.Error("ParityDrives wrong")
	}
}

func TestBaselineConfigsCount(t *testing.T) {
	cfgs := BaselineConfigs()
	if len(cfgs) != 9 {
		t.Fatalf("len = %d, want 9", len(cfgs))
	}
	seen := make(map[string]bool)
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%v: %v", c, err)
		}
		seen[c.String()] = true
	}
	if len(seen) != 9 {
		t.Errorf("configurations not distinct: %v", seen)
	}
}

func TestSensitivityConfigs(t *testing.T) {
	cfgs := SensitivityConfigs()
	want := []string{
		"FT 2, No Internal RAID",
		"FT 2, Internal RAID 5",
		"FT 3, No Internal RAID",
	}
	if len(cfgs) != len(want) {
		t.Fatalf("len = %d, want %d", len(cfgs), len(want))
	}
	for i, c := range cfgs {
		if c.String() != want[i] {
			t.Errorf("cfg[%d] = %v, want %v", i, c, want[i])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Internal: 0, NodeFaultTolerance: 1},
		{Internal: InternalNone, NodeFaultTolerance: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
}

func TestAnalyzeBaselineAllConfigs(t *testing.T) {
	p := params.Baseline()
	results, err := AnalyzeAll(context.Background(), p, BaselineConfigs(), MethodClosedForm, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.MTTDLHours <= 0 || math.IsInf(r.MTTDLHours, 0) || math.IsNaN(r.MTTDLHours) {
			t.Errorf("%v: MTTDL = %v", r.Config, r.MTTDLHours)
		}
		if r.EventsPerPBYear <= 0 {
			t.Errorf("%v: events/PB-yr = %v", r.Config, r.EventsPerPBYear)
		}
		if r.LogicalCapacityPB <= 0 || r.LogicalCapacityPB > 1 {
			t.Errorf("%v: logical capacity = %v PB, want (0,1] for baseline", r.Config, r.LogicalCapacityPB)
		}
	}
}

// The closed form is the design-space search's per-candidate cost, run
// ~10^4 times per plan request: it must not allocate.
func TestAnalyzeClosedFormAllocs(t *testing.T) {
	p := params.Baseline()
	for _, ir := range []InternalRedundancy{InternalNone, InternalRAID5, InternalRAID6} {
		for ft := 1; ft <= 3; ft++ {
			cfg := Config{Internal: ir, NodeFaultTolerance: ft}
			if _, err := Analyze(p, cfg, MethodClosedForm); err != nil {
				t.Fatalf("%v: %v", cfg, err)
			}
			if n := testing.AllocsPerRun(100, func() {
				Analyze(p, cfg, MethodClosedForm) //nolint:errcheck // checked above
			}); n != 0 {
				t.Errorf("%v: closed-form Analyze allocates %v times per run, want 0", cfg, n)
			}
		}
	}
}

// Figure 13, observation 1: fault tolerance 1 configurations miss the
// target; every FT >= 2 configuration meets it.
func TestBaselineTargetPattern(t *testing.T) {
	p := params.Baseline()
	target := PaperTarget()
	for _, cfg := range BaselineConfigs() {
		r, err := Analyze(p, cfg, MethodClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		meets := target.Meets(r)
		if cfg.NodeFaultTolerance == 1 && meets {
			t.Errorf("%v unexpectedly meets the target (%.3g events/PB-yr)", cfg, r.EventsPerPBYear)
		}
		if cfg.NodeFaultTolerance >= 2 && cfg.Internal != InternalNone && !meets {
			t.Errorf("%v unexpectedly misses the target (%.3g events/PB-yr)", cfg, r.EventsPerPBYear)
		}
	}
}

// Figure 13, observation 2: internal RAID 5 and RAID 6 are essentially
// indistinguishable at fault tolerance >= 2 (node failures dominate).
func TestRAID5vsRAID6Indistinguishable(t *testing.T) {
	p := params.Baseline()
	for ft := 2; ft <= 3; ft++ {
		r5, err := Analyze(p, Config{Internal: InternalRAID5, NodeFaultTolerance: ft}, MethodClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		r6, err := Analyze(p, Config{Internal: InternalRAID6, NodeFaultTolerance: ft}, MethodClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		// "No significant difference" on Figure 13's log scale spanning
		// ~12 decades: the two must agree within a factor of two (the
		// residual gap is RAID 5's restripe-sector-error exposure).
		ratio := r6.MTTDLHours / r5.MTTDLHours
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("FT%d: RAID5 MTTDL %v vs RAID6 %v beyond a factor of 2", ft, r5.MTTDLHours, r6.MTTDLHours)
		}
	}
}

// Figure 13, observation 3: FT 3 with internal RAID beats the target by
// about five orders of magnitude.
func TestFT3InternalRAIDHugeMargin(t *testing.T) {
	p := params.Baseline()
	r, err := Analyze(p, Config{Internal: InternalRAID5, NodeFaultTolerance: 3}, MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	margin := PaperTarget().Margin(r)
	if margin < 1e4 || margin > 1e8 {
		t.Errorf("FT3+RAID5 margin = %.3g, want roughly 1e5 (within [1e4, 1e8])", margin)
	}
}

func TestAnalyzeExactChainCloseToClosedForm(t *testing.T) {
	p := params.Baseline()
	for _, cfg := range SensitivityConfigs() {
		cf, err := Analyze(p, cfg, MethodClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := Analyze(p, cfg, MethodExactChain)
		if err != nil {
			t.Fatal(err)
		}
		if linalg.RelDiff(cf.MTTDLHours, ex.MTTDLHours) > 0.05 {
			t.Errorf("%v: closed form %v vs exact chain %v differ by > 5%%", cfg, cf.MTTDLHours, ex.MTTDLHours)
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	p := params.Baseline()
	cases := []struct {
		name string
		p    params.Parameters
		cfg  Config
	}{
		{"bad params", func() params.Parameters { q := p; q.NodeMTTFHours = 0; return q }(), Config{Internal: InternalNone, NodeFaultTolerance: 2}},
		{"bad config", p, Config{Internal: 0, NodeFaultTolerance: 2}},
		{"k too large for R", p, Config{Internal: InternalNone, NodeFaultTolerance: 8}},
		{"k too large for N", func() params.Parameters { q := p; q.NodeSetSize = 4; q.RedundancySetSize = 4; return q }(), Config{Internal: InternalNone, NodeFaultTolerance: 3}},
		{"raid6 with 2 drives", func() params.Parameters { q := p; q.DrivesPerNode = 2; return q }(), Config{Internal: InternalRAID6, NodeFaultTolerance: 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Analyze(c.p, c.cfg, MethodClosedForm); err == nil {
				t.Error("Analyze succeeded, want error")
			}
		})
	}
}

func TestLogicalCapacity(t *testing.T) {
	p := params.Baseline()
	// No internal RAID, FT2: 64·12·300 GB × 6/8 × 0.75 = 129.6 TB.
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	if got, want := LogicalCapacityPB(p, cfg), 0.1296; math.Abs(got-want) > 1e-12 {
		t.Errorf("capacity = %v PB, want %v", got, want)
	}
	// RAID5 keeps 11/12 of that.
	cfg5 := Config{Internal: InternalRAID5, NodeFaultTolerance: 2}
	if got, want := LogicalCapacityPB(p, cfg5), 0.1296*11/12; math.Abs(got-want) > 1e-12 {
		t.Errorf("RAID5 capacity = %v PB, want %v", got, want)
	}
}

func TestTargetSemantics(t *testing.T) {
	tgt := PaperTarget()
	if math.Abs(tgt.EventsPerPBYear-2e-3) > 1e-18 {
		t.Errorf("paper target = %v, want 2e-3", tgt.EventsPerPBYear)
	}
	good := Result{EventsPerPBYear: 1e-4}
	bad := Result{EventsPerPBYear: 1e-2}
	if !tgt.Meets(good) || tgt.Meets(bad) {
		t.Error("Meets() misclassifies")
	}
	if m := tgt.Margin(good); math.Abs(m-20) > 1e-9 {
		t.Errorf("Margin = %v, want 20", m)
	}
	if m := tgt.Margin(Result{}); m != 0 {
		t.Errorf("Margin of zero-rate result = %v, want 0", m)
	}
}

func TestSweepBasics(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	xs := []float64{100_000, 400_000, 750_000}
	pts, err := Sweep(context.Background(), p, cfgs, MethodClosedForm, xs, func(q *params.Parameters, x float64) {
		q.DriveMTTFHours = x
	}, 0)

	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(xs) {
		t.Fatalf("points = %d, want %d", len(pts), len(xs))
	}
	for i, pt := range pts {
		if pt.X != xs[i] {
			t.Errorf("point %d X = %v", i, pt.X)
		}
		if len(pt.Results) != len(cfgs) {
			t.Fatalf("point %d has %d results", i, len(pt.Results))
		}
		if pt.Results[0].Params.DriveMTTFHours != xs[i] {
			t.Errorf("point %d did not apply the parameter", i)
		}
	}
	// Better drives must not hurt any configuration.
	for i := range cfgs {
		s := Series(pts, i)
		for j := 1; j < len(s); j++ {
			if s[j] > s[j-1]*(1+1e-9) {
				t.Errorf("config %d: events increased with drive MTTF: %v", i, s)
			}
		}
	}
}

func TestSweepErrors(t *testing.T) {
	p := params.Baseline()
	cfgs := SensitivityConfigs()
	if _, err := Sweep(context.Background(), p, cfgs, MethodClosedForm, nil, func(*params.Parameters, float64) {}, 0); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := Sweep(context.Background(), p, cfgs, MethodClosedForm, []float64{1}, nil, 0); err == nil {
		t.Error("nil apply accepted")
	}
	_, err := Sweep(context.Background(), p, cfgs, MethodClosedForm, []float64{0}, func(q *params.Parameters, x float64) {
		q.NodeMTTFHours = x
	}, 0)

	if err == nil || !strings.Contains(err.Error(), "sweep at x=0") {
		t.Errorf("sweep error = %v, want contextual error", err)
	}
}

func TestMethodString(t *testing.T) {
	if MethodClosedForm.String() != "closed-form" || MethodExactChain.String() != "exact-chain" {
		t.Error("Method.String wrong")
	}
	if MethodExactStable.String() != "exact-stable" {
		t.Error("MethodExactStable.String wrong")
	}
	if !strings.Contains(Method(42).String(), "42") {
		t.Error("unknown method String should include value")
	}
}

// The stable recurrences must agree with the dense chain solves where the
// latter are trustworthy, for both families.
func TestExactStableMatchesExactChain(t *testing.T) {
	p := params.Baseline()
	for _, cfg := range BaselineConfigs() {
		chain, err := Analyze(p, cfg, MethodExactChain)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		stable, err := Analyze(p, cfg, MethodExactStable)
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		// The dense solve itself carries ~1e-6 relative error on the
		// stiffest FT3 chains; the tolerance reflects LU, not the
		// recurrences.
		if linalg.RelDiff(chain.MTTDLHours, stable.MTTDLHours) > 1e-5 {
			t.Errorf("%v: chain %v vs stable %v", cfg, chain.MTTDLHours, stable.MTTDLHours)
		}
	}
}

// The stable method keeps working where the dense solve exhausts float64.
func TestExactStableSurvivesDeepK(t *testing.T) {
	p := params.Baseline()
	prev := 0.0
	for k := 4; k <= 7; k++ {
		r, err := Analyze(p, Config{Internal: InternalNone, NodeFaultTolerance: k}, MethodExactStable)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if r.MTTDLHours <= prev {
			t.Errorf("k=%d: MTTDL %v not increasing", k, r.MTTDLHours)
		}
		prev = r.MTTDLHours
	}
	if prev < 1e20 {
		t.Errorf("k=7 MTTDL = %v, expected beyond 1e20 h", prev)
	}
}

// Beyond k≈5 at baseline the exact solve exhausts float64 (MTTDL ~ 10²²
// hours); Analyze must refuse rather than return garbage.
func TestAnalyzeExactChainNumericGuard(t *testing.T) {
	p := params.Baseline()
	_, err := Analyze(p, Config{Internal: InternalNone, NodeFaultTolerance: 6}, MethodExactChain)
	if err == nil || !strings.Contains(err.Error(), "numerically") {
		t.Errorf("err = %v, want numeric-guard error", err)
	}
}

// The exact-chain method must also work for fault tolerance beyond the
// paper's printed range (general-k machinery).
func TestAnalyzeGeneralK(t *testing.T) {
	p := params.Baseline()
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		r, err := Analyze(p, Config{Internal: InternalNone, NodeFaultTolerance: k}, MethodExactChain)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if r.EventsPerPBYear >= prev {
			t.Errorf("events/PB-yr not decreasing at k=%d: %v >= %v", k, r.EventsPerPBYear, prev)
		}
		prev = r.EventsPerPBYear
	}
}
