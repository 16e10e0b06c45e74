package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/params"
)

// Default sweep grids, chosen to cover the paper's plotted ranges.
var (
	// DriveMTTFGrid spans the paper's "practical range" for drive MTTF.
	DriveMTTFGrid = []float64{100_000, 200_000, 300_000, 450_000, 600_000, 750_000}
	// NodeMTTFGrid spans the paper's practical range for node MTTF.
	NodeMTTFGrid = []float64{100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000}
	// RebuildBlockGrid covers command sizes from 4 KiB to 1 MiB.
	RebuildBlockGrid = []float64{
		4 * params.KiB, 8 * params.KiB, 16 * params.KiB, 32 * params.KiB,
		64 * params.KiB, 128 * params.KiB, 256 * params.KiB, 512 * params.KiB, params.MiB,
	}
	// LinkSpeedGrid matches Figure 17's three plotted points.
	LinkSpeedGrid = []float64{1, 5, 10}
	// NodeSetGrid covers Figure 18's node-set sizes.
	NodeSetGrid = []float64{16, 24, 32, 48, 64, 96, 128}
	// RedundancySetGrid covers Figure 19's redundancy-set sizes.
	RedundancySetGrid = []float64{4, 6, 8, 12, 16}
	// DrivesPerNodeGrid covers Figure 20's drives-per-node counts.
	DrivesPerNodeGrid = []float64{4, 8, 12, 16, 24}
)

// Fig13Baseline regenerates Figure 13: data-loss events per PB-year for the
// nine redundancy configurations at baseline parameters.
func Fig13Baseline(ctx context.Context, p params.Parameters, workers int) (*Table, []core.Result, error) {
	results, err := core.AnalyzeAll(ctx, p, core.BaselineConfigs(), core.MethodClosedForm, workers)
	if err != nil {
		return nil, nil, err
	}
	target := core.PaperTarget()
	t := &Table{
		ID:      "fig13",
		Title:   "Baseline comparison: data loss events per PB-year, 9 configurations",
		Columns: []string{"configuration", "MTTDL (h)", "events/PB-yr", "meets 2e-3 target"},
	}
	for _, r := range results {
		t.AddRow(r.Config.String(), sci(r.MTTDLHours), sci(r.EventsPerPBYear), yesNo(target.Meets(r)))
	}
	t.Notes = append(t.Notes,
		"paper: FT 1 configurations do not meet the target",
		"paper: internal RAID 5 vs RAID 6 indistinguishable for FT >= 2",
		"paper: FT 3 with internal RAID exceeds the target by ~5 orders of magnitude",
	)
	return t, results, nil
}

// sensitivitySweep renders a one-parameter sweep over the paper's three
// sensitivity configurations.
func sensitivitySweep(ctx context.Context, p params.Parameters, workers int, id, title, xLabel string, xs []float64, fmtX func(float64) string, apply func(*params.Parameters, float64)) (*Table, []core.SweepPoint, error) {
	cfgs := core.SensitivityConfigs()
	pts, err := core.Sweep(ctx, p, cfgs, core.MethodClosedForm, xs, apply, workers)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{ID: id, Title: title}
	t.Columns = []string{xLabel}
	for _, c := range cfgs {
		t.Columns = append(t.Columns, c.String())
	}
	for _, pt := range pts {
		cells := []string{fmtX(pt.X)}
		for _, r := range pt.Results {
			cells = append(cells, sci(r.EventsPerPBYear))
		}
		t.AddRow(cells...)
	}
	return t, pts, nil
}

// Fig14DriveMTTF regenerates Figure 14: sensitivity to drive MTTF, shown at
// the low and high ends of the node-MTTF range.
func Fig14DriveMTTF(ctx context.Context, p params.Parameters, workers int) ([]*Table, error) {
	var out []*Table
	for _, nodeMTTF := range []float64{100_000, 1_000_000} {
		base := p
		base.NodeMTTFHours = nodeMTTF
		id := fmt.Sprintf("fig14-node%dk", int(nodeMTTF/1000))
		t, _, err := sensitivitySweep(ctx, base, workers, id,
			fmt.Sprintf("Sensitivity to drive MTTF (node MTTF = %.0f h)", nodeMTTF),
			"drive MTTF (h)", DriveMTTFGrid,
			func(x float64) string { return fmt.Sprintf("%.0f", x) },
			func(q *params.Parameters, x float64) { q.DriveMTTFHours = x })
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes,
			"paper: FT2 no-internal-RAID misses the target at low node MTTF, marginal at high",
			"paper: FT2 internal RAID 5 is relatively insensitive to drive MTTF at low node MTTF",
		)
		out = append(out, t)
	}
	return out, nil
}

// Fig15NodeMTTF regenerates Figure 15: sensitivity to node MTTF, shown at
// the low and high ends of the drive-MTTF range.
func Fig15NodeMTTF(ctx context.Context, p params.Parameters, workers int) ([]*Table, error) {
	var out []*Table
	for _, driveMTTF := range []float64{100_000, 750_000} {
		base := p
		base.DriveMTTFHours = driveMTTF
		id := fmt.Sprintf("fig15-drive%dk", int(driveMTTF/1000))
		t, _, err := sensitivitySweep(ctx, base, workers, id,
			fmt.Sprintf("Sensitivity to node MTTF (drive MTTF = %.0f h)", driveMTTF),
			"node MTTF (h)", NodeMTTFGrid,
			func(x float64) string { return fmt.Sprintf("%.0f", x) },
			func(q *params.Parameters, x float64) { q.NodeMTTFHours = x })
		if err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes,
			"paper: FT2 internal RAID 5 shows the most sensitivity to node MTTF",
			"paper: sensitivity increases with high drive MTTF",
		)
		out = append(out, t)
	}
	return out, nil
}

// Fig16RebuildBlockSize regenerates Figure 16: sensitivity to the rebuild
// command (block) size.
func Fig16RebuildBlockSize(ctx context.Context, p params.Parameters, workers int) (*Table, []core.SweepPoint, error) {
	t, pts, err := sensitivitySweep(ctx, p, workers, "fig16",
		"Sensitivity to rebuild block size",
		"block (KiB)", RebuildBlockGrid,
		func(x float64) string { return fmt.Sprintf("%.0f", x/params.KiB) },
		func(q *params.Parameters, x float64) { q.RebuildCommandBytes = x })
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes,
		"paper: block size has the most significant impact of any controllable parameter",
		"paper: FT2-IR5 and FT3-NIR meet the target for blocks >= 64 KB",
	)
	return t, pts, nil
}

// Fig17LinkSpeed regenerates Figure 17: sensitivity to link speed at 1, 5
// and 10 Gb/s.
func Fig17LinkSpeed(ctx context.Context, p params.Parameters, workers int) (*Table, []core.SweepPoint, error) {
	t, pts, err := sensitivitySweep(ctx, p, workers, "fig17",
		"Sensitivity to link speed",
		"link (Gb/s)", LinkSpeedGrid,
		func(x float64) string { return fmt.Sprintf("%.0f", x) },
		func(q *params.Parameters, x float64) { q.LinkSpeedGbps = x })
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes,
		"paper: disk-limited above ~3 Gb/s, so 5 and 10 Gb/s are identical and 1 Gb/s is worse",
	)
	return t, pts, nil
}

// Fig18NodeSetSize regenerates Figure 18: sensitivity to the node set size.
func Fig18NodeSetSize(ctx context.Context, p params.Parameters, workers int) (*Table, []core.SweepPoint, error) {
	t, pts, err := sensitivitySweep(ctx, p, workers, "fig18",
		"Sensitivity to node set size",
		"N (nodes)", NodeSetGrid,
		func(x float64) string { return fmt.Sprintf("%.0f", x) },
		func(q *params.Parameters, x float64) { q.NodeSetSize = int(x) })
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes,
		"paper: FT2 no-internal-RAID shows some sensitivity; the other two are relatively insensitive",
	)
	return t, pts, nil
}

// Fig19RedundancySetSize regenerates Figure 19: sensitivity to the
// redundancy set size.
func Fig19RedundancySetSize(ctx context.Context, p params.Parameters, workers int) (*Table, []core.SweepPoint, error) {
	t, pts, err := sensitivitySweep(ctx, p, workers, "fig19",
		"Sensitivity to redundancy set size",
		"R (nodes)", RedundancySetGrid,
		func(x float64) string { return fmt.Sprintf("%.0f", x) },
		func(q *params.Parameters, x float64) { q.RedundancySetSize = int(x) })
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes,
		"paper: all configurations become less reliable as R grows; about an order of magnitude across the range",
	)
	return t, pts, nil
}

// Fig20DrivesPerNode regenerates Figure 20: sensitivity to drives per node.
func Fig20DrivesPerNode(ctx context.Context, p params.Parameters, workers int) (*Table, []core.SweepPoint, error) {
	t, pts, err := sensitivitySweep(ctx, p, workers, "fig20",
		"Sensitivity to drives per node",
		"d (drives)", DrivesPerNodeGrid,
		func(x float64) string { return fmt.Sprintf("%.0f", x) },
		func(q *params.Parameters, x float64) { q.DrivesPerNode = int(x) })
	if err != nil {
		return nil, nil, err
	}
	t.Notes = append(t.Notes,
		"paper: very little sensitivity — per-PB normalization cancels the per-node effect",
	)
	return t, pts, nil
}

// AppendixGeneralK cross-checks the appendix theorem against two exact
// solutions — dense LU on the explicit chain and the appendix's own
// determinant recursion in cancellation-free form — for the
// no-internal-RAID family at fault tolerance 1..maxK.
func AppendixGeneralK(p params.Parameters, maxK int) (*Table, error) {
	t := &Table{
		ID:      "appendix",
		Title:   "General-k theorem (Fig A1) vs exact solutions, no internal RAID",
		Columns: []string{"k", "theorem MTTDL (h)", "exact stable (h)", "exact LU (h)", "theorem rel diff"},
	}
	for k := 1; k <= maxK; k++ {
		cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: k}
		cf, err := core.Analyze(p, cfg, core.MethodClosedForm)
		if err != nil {
			return nil, err
		}
		ex, err := core.Analyze(p, cfg, core.MethodExactStable)
		if err != nil {
			return nil, err
		}
		luCell := "float64 exhausted"
		if lu, err := core.Analyze(p, cfg, core.MethodExactChain); err == nil {
			luCell = sci(lu.MTTDLHours)
		}
		rel := (cf.MTTDLHours - ex.MTTDLHours) / ex.MTTDLHours
		t.AddRow(fmt.Sprintf("%d", k), sci(cf.MTTDLHours), sci(ex.MTTDLHours), luCell, fmt.Sprintf("%+.2e", rel))
	}
	t.Notes = append(t.Notes,
		"k=1 diverges at baseline because h_N = d(R-1)·C·HER ≈ 2.0 exceeds 1 (see DESIGN.md)",
		"the dense LU solve loses ~3 digits per level and exhausts float64 near k=6; the recursion does not",
	)
	return t, nil
}

// All regenerates every figure at the given parameters, in paper order.
func All(ctx context.Context, p params.Parameters, workers int) ([]*Table, error) {
	var out []*Table
	t13, _, err := Fig13Baseline(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	out = append(out, t13)
	t14, err := Fig14DriveMTTF(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	out = append(out, t14...)
	t15, err := Fig15NodeMTTF(ctx, p, workers)
	if err != nil {
		return nil, err
	}
	out = append(out, t15...)
	for _, fn := range []func(context.Context, params.Parameters, int) (*Table, []core.SweepPoint, error){
		Fig16RebuildBlockSize, Fig17LinkSpeed, Fig18NodeSetSize,
		Fig19RedundancySetSize, Fig20DrivesPerNode,
	} {
		t, _, err := fn(ctx, p, workers)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	ta, err := AppendixGeneralK(p, 6)
	if err != nil {
		return nil, err
	}
	out = append(out, ta)
	return out, nil
}
