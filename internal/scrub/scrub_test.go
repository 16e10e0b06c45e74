package scrub

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// rhoYearly is roughly one latent fault per drive-year.
const rhoYearly = 1.0 / params.HoursPerYear

func TestEffectiveCHER(t *testing.T) {
	p := params.Baseline()
	// No latent faults: exactly the paper's C·HER.
	eff, err := EffectiveCHER(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eff != p.CHER() {
		t.Errorf("eff = %v, want %v", eff, p.CHER())
	}
	// Weekly scrub at ~1 fault/drive-year: + ρ·168/2 ≈ 0.0096.
	eff, err = EffectiveCHER(p, Options{LatentFaultsPerDriveHour: rhoYearly, ScrubIntervalHours: 168})
	if err != nil {
		t.Fatal(err)
	}
	want := p.CHER() + rhoYearly*168/2
	if math.Abs(eff-want) > 1e-15 {
		t.Errorf("eff = %v, want %v", eff, want)
	}
}

func TestEffectiveCHERValidation(t *testing.T) {
	p := params.Baseline()
	if _, err := EffectiveCHER(p, Options{LatentFaultsPerDriveHour: -1}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := EffectiveCHER(p, Options{ScrubIntervalHours: -1}); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestAnalyzeReducesToPaperWithoutLatentFaults(t *testing.T) {
	p := params.Baseline()
	cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: 2}
	withScrub, err := Analyze(p, cfg, Options{}, core.MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Analyze(p, cfg, core.MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(withScrub.MTTDLHours-plain.MTTDLHours)/plain.MTTDLHours > 1e-12 {
		t.Errorf("zero-latent analysis %v != paper analysis %v", withScrub.MTTDLHours, plain.MTTDLHours)
	}
}

func TestShorterScrubIntervalsNeverHurt(t *testing.T) {
	p := params.Baseline()
	cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: 2}
	intervals := []float64{24, 168, 720, 4380, 8766}
	for i := 1; i < len(intervals); i++ {
		if mttdlAt(t, p, cfg, intervals[i]) > mttdlAt(t, p, cfg, intervals[i-1]) {
			t.Errorf("MTTDL improved with longer scrub interval: %v h → %v h",
				intervals[i-1], intervals[i])
		}
	}
}

func TestScrubMattersAtScale(t *testing.T) {
	// Going from yearly to daily scrubs should materially improve the
	// no-internal-RAID FT2 configuration, whose loss rate has a large
	// sector-error component.
	p := params.Baseline()
	cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: 2}
	improvement := mttdlAt(t, p, cfg, 24) / mttdlAt(t, p, cfg, 8766)
	if improvement < 1.5 {
		t.Errorf("daily vs yearly scrub improvement = %v×, want > 1.5×", improvement)
	}
}

func TestScrubSaturatesAtInstantaneousFloor(t *testing.T) {
	// As S → 0 the result approaches the paper's no-latent value.
	p := params.Baseline()
	cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: 2}
	tiny, err := Analyze(p, cfg, Options{LatentFaultsPerDriveHour: rhoYearly, ScrubIntervalHours: 0.01}, core.MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	floor, err := core.Analyze(p, cfg, core.MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tiny.MTTDLHours-floor.MTTDLHours)/floor.MTTDLHours > 1e-3 {
		t.Errorf("S→0 MTTDL %v does not approach floor %v", tiny.MTTDLHours, floor.MTTDLHours)
	}
}

func TestMinUsefulInterval(t *testing.T) {
	p := params.Baseline()
	s, err := MinUsefulInterval(p, rhoYearly, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// 2·0.1·0.024/ρ ≈ 42 days in hours.
	want := 2 * 0.1 * p.CHER() / rhoYearly
	if math.Abs(s-want) > 1e-9 {
		t.Errorf("MinUsefulInterval = %v, want %v", s, want)
	}
	// At that interval the latent term is exactly the chosen fraction.
	eff, err := EffectiveCHER(p, Options{LatentFaultsPerDriveHour: rhoYearly, ScrubIntervalHours: s})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eff-(1.1*p.CHER()))/p.CHER() > 1e-12 {
		t.Errorf("eff at min interval = %v, want 1.1·CHER", eff)
	}
	if _, err := MinUsefulInterval(p, 0, 0.1); err == nil {
		t.Error("zero rate accepted")
	}
	for _, bad := range []float64{0, 1, 2} {
		if _, err := MinUsefulInterval(p, rhoYearly, bad); err == nil {
			t.Errorf("fraction %v accepted", bad)
		}
	}
}

// mttdlAt is the closed-form MTTDL of cfg with yearly latent faults and
// a scrub every s hours.
func mttdlAt(t *testing.T, p params.Parameters, cfg core.Config, s float64) float64 {
	t.Helper()
	r, err := Analyze(p, cfg, Options{LatentFaultsPerDriveHour: rhoYearly, ScrubIntervalHours: s}, core.MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	return r.MTTDLHours
}
