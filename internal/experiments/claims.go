package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// Claim is one of the paper's enumerated observations, re-checked against
// freshly computed numbers.
type Claim struct {
	// ID is a short slug; Statement paraphrases the paper.
	ID, Statement string
	// Holds reports whether the reproduction confirms the claim; Detail
	// carries the measured numbers.
	Holds  bool
	Detail string
}

// CheckClaims recomputes the paper's headline observations at the given
// parameters and reports which hold. This is the executable form of the
// EXPERIMENTS.md claims record: `nsr-report` prints it, and the test suite
// requires every claim to hold at baseline.
func CheckClaims(ctx context.Context, p params.Parameters, workers int) ([]Claim, error) {
	target := core.PaperTarget()
	results, err := core.AnalyzeAll(ctx, p, core.BaselineConfigs(), core.MethodClosedForm, workers)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]core.Result, len(results))
	for _, r := range results {
		byName[r.Config.String()] = r
	}
	var claims []Claim
	add := func(id, statement string, holds bool, detail string, args ...interface{}) {
		claims = append(claims, Claim{
			ID: id, Statement: statement,
			Holds:  holds,
			Detail: fmt.Sprintf(detail, args...),
		})
	}

	// Figure 13, observation 1.
	ft1Miss := true
	worst := 0.0
	for _, r := range results {
		if r.Config.NodeFaultTolerance == 1 {
			if target.Meets(r) {
				ft1Miss = false
			}
			worst = math.Max(worst, target.Margin(r))
		}
	}
	add("fig13-ft1", "fault tolerance 1 configurations do not meet the target",
		ft1Miss, "best FT1 margin %.3g (needs ≥ 1 to pass)", worst)

	// Figure 13, observation 2.
	ok2 := true
	var ratios []float64
	for _, ft := range []int{2, 3} {
		r5 := byName[fmt.Sprintf("FT %d, Internal RAID 5", ft)]
		r6 := byName[fmt.Sprintf("FT %d, Internal RAID 6", ft)]
		ratio := r6.MTTDLHours / r5.MTTDLHours
		ratios = append(ratios, ratio)
		if ratio < 0.5 || ratio > 2 {
			ok2 = false
		}
	}
	add("fig13-raid6", "internal RAID 6 buys nothing over RAID 5 at FT >= 2",
		ok2, "RAID6/RAID5 MTTDL ratios: FT2 %.2f, FT3 %.2f", ratios[0], ratios[1])

	// Figure 13, observation 3.
	margin3 := target.Margin(byName["FT 3, Internal RAID 5"])
	add("fig13-ft3ir", "FT 3 with internal RAID exceeds the target by ~5 orders of magnitude",
		margin3 >= 1e4 && margin3 <= 1e8, "margin %.3g", margin3)

	// FT2-NIR is the marginal configuration.
	m := target.Margin(byName["FT 2, No Internal RAID"])
	add("fig13-ft2nir", "FT 2 without internal RAID sits at the target boundary",
		m > 0.2 && m < 5, "margin %.3g (marginal band 0.2..5)", m)

	// Figure 16: block size monotone; survivors meet target at >= 64 KiB.
	_, pts16, err := Fig16RebuildBlockSize(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	mono := true
	meets64 := true
	for i, pt := range pts16 {
		for cfgIdx := 0; cfgIdx < 3; cfgIdx++ {
			if i > 0 && pt.Results[cfgIdx].EventsPerPBYear > pts16[i-1].Results[cfgIdx].EventsPerPBYear*(1+1e-9) {
				mono = false
			}
		}
		if pt.X >= 64*params.KiB && (!target.Meets(pt.Results[1]) || !target.Meets(pt.Results[2])) {
			meets64 = false
		}
	}
	add("fig16-block", "reliability improves monotonically with rebuild block size; FT2-IR5 and FT3-NIR meet the target at >= 64 KB",
		mono && meets64, "monotone=%v, >=64KiB target=%v", mono, meets64)

	// Figure 17: 5 and 10 Gb/s identical; 1 Gb/s worse; crossover in (1,5).
	_, pts17, err := Fig17LinkSpeed(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	flat := true
	worse1 := true
	for i := 0; i < 3; i++ {
		s := core.Series(pts17, i)
		if s[1] != s[2] {
			flat = false
		}
		if s[0] <= s[1] {
			worse1 = false
		}
	}
	cross := rebuild.CrossoverLinkSpeedGbps(p, 2)
	add("fig17-link", "rebuild is link-limited up to ~3 Gb/s; 5 and 10 Gb/s are identical",
		flat && worse1 && cross > 1 && cross < 5,
		"crossover %.2f Gb/s, 5==10 Gb/s: %v, 1 Gb/s worse: %v", cross, flat, worse1)

	// Figure 19: monotone degradation with R.
	_, pts19, err := Fig19RedundancySetSize(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	mono19 := true
	for i := range pts19 {
		if i == 0 {
			continue
		}
		for cfgIdx := 0; cfgIdx < 3; cfgIdx++ {
			if pts19[i].Results[cfgIdx].EventsPerPBYear < pts19[i-1].Results[cfgIdx].EventsPerPBYear*(1-1e-9) {
				mono19 = false
			}
		}
	}
	add("fig19-rset", "all configurations become less reliable as the redundancy set grows",
		mono19, "monotone over R grid: %v", mono19)

	// Figure 20: little sensitivity to drives per node.
	_, pts20, err := Fig20DrivesPerNode(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	maxSpread := 0.0
	for cfgIdx := 0; cfgIdx < 3; cfgIdx++ {
		s := core.Series(pts20, cfgIdx)
		lo, hi := math.Inf(1), 0.0
		for _, v := range s {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		maxSpread = math.Max(maxSpread, hi/lo)
	}
	add("fig20-drives", "very little sensitivity to drives per node",
		maxSpread < 10, "max spread %.2f× across the d grid", maxSpread)

	// Appendix: theorem within 1% of the exact solution for k = 2..4.
	okA := true
	worstRel := 0.0
	for k := 2; k <= 4; k++ {
		cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: k}
		cf, err := core.Analyze(p, cfg, core.MethodClosedForm)
		if err != nil {
			return nil, err
		}
		ex, err := core.Analyze(p, cfg, core.MethodExactStable)
		if err != nil {
			return nil, err
		}
		rel := linalg.RelDiff(cf.MTTDLHours, ex.MTTDLHours)
		worstRel = math.Max(worstRel, rel)
		if rel > 0.01 {
			okA = false
		}
	}
	add("appendix-theorem", "the general-k theorem tracks the exact solution (k = 2..4)",
		okA, "worst relative error %.2g", worstRel)

	return claims, nil
}

// ClaimsTable renders the claim check.
func ClaimsTable(ctx context.Context, p params.Parameters, workers int) (*Table, error) {
	claims, err := CheckClaims(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "claims",
		Title:   "Paper claims, re-verified against freshly computed numbers",
		Columns: []string{"claim", "holds", "measured"},
	}
	for _, c := range claims {
		t.AddRow(c.Statement, yesNo(c.Holds), c.Detail)
	}
	return t, nil
}
