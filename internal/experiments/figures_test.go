package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

func TestFig13Shape(t *testing.T) {
	table, results, err := Fig13Baseline(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 9 || len(results) != 9 {
		t.Fatalf("rows = %d, results = %d, want 9", len(table.Rows), len(results))
	}
	target := core.PaperTarget()
	for _, r := range results {
		meets := target.Meets(r)
		if r.Config.NodeFaultTolerance == 1 && meets {
			t.Errorf("%v should miss the target", r.Config)
		}
		if r.Config.NodeFaultTolerance == 3 && !meets {
			t.Errorf("%v should meet the target", r.Config)
		}
	}
	out := table.String()
	if !strings.Contains(out, "FT 2, Internal RAID 5") {
		t.Error("rendered table missing configuration label")
	}
}

func TestFig14Shapes(t *testing.T) {
	tables, err := Fig14DriveMTTF(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2 (low/high node MTTF)", len(tables))
	}
	for _, table := range tables {
		if len(table.Rows) != len(DriveMTTFGrid) {
			t.Errorf("%s: rows = %d, want %d", table.ID, len(table.Rows), len(DriveMTTFGrid))
		}
	}
}

// Figure 14's central claim: FT2 no-internal-RAID misses the target across
// the drive-MTTF range when node MTTF is low.
func TestFig14FT2NIRMissesTargetAtLowNodeMTTF(t *testing.T) {
	p := params.Baseline()
	p.NodeMTTFHours = 100_000
	cfgs := core.SensitivityConfigs() // index 0 is FT2, no internal RAID
	pts, err := core.Sweep(context.Background(), p, cfgs, core.MethodClosedForm, DriveMTTFGrid, func(q *params.Parameters, x float64) {
		q.DriveMTTFHours = x
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	target := core.PaperTarget()
	for _, pt := range pts {
		if target.Meets(pt.Results[0]) {
			t.Errorf("FT2-NIR at drive MTTF %v, node MTTF 100k: %.3g meets the target, paper says it should not",
				pt.X, pt.Results[0].EventsPerPBYear)
		}
	}
}

// Figure 14: FT2 internal RAID 5 is relatively insensitive to drive MTTF at
// low node MTTF (node failures dominate).
func TestFig14FT2IR5InsensitiveAtLowNodeMTTF(t *testing.T) {
	p := params.Baseline()
	p.NodeMTTFHours = 100_000
	cfg := []core.Config{{Internal: core.InternalRAID5, NodeFaultTolerance: 2}}
	pts, err := core.Sweep(context.Background(), p, cfg, core.MethodClosedForm, DriveMTTFGrid, func(q *params.Parameters, x float64) {
		q.DriveMTTFHours = x
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := core.Series(pts, 0)
	spread := s[0] / s[len(s)-1] // worst (lowest MTTF) over best
	if spread > 10 {
		t.Errorf("FT2-IR5 spread across drive MTTF = %.3g×, want < 10× (insensitive)", spread)
	}
}

// Figure 15: FT2 internal RAID 5 is the configuration most sensitive to
// node MTTF.
func TestFig15IR5MostSensitiveToNodeMTTF(t *testing.T) {
	p := params.Baseline()
	cfgs := core.SensitivityConfigs()
	pts, err := core.Sweep(context.Background(), p, cfgs, core.MethodClosedForm, []float64{100_000, 1_000_000}, func(q *params.Parameters, x float64) {
		q.NodeMTTFHours = x
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(i int) float64 {
		s := core.Series(pts, i)
		return s[0] / s[len(s)-1]
	}
	ir5 := spread(1)
	if ir5 < spread(0) || ir5 < spread(2) {
		t.Errorf("FT2-IR5 node-MTTF spread %.3g should exceed FT2-NIR %.3g and FT3-NIR %.3g",
			ir5, spread(0), spread(2))
	}
}

// Figure 16: reliability improves monotonically with block size and the
// surviving configurations meet the target at >= 64 KiB.
func TestFig16Monotone(t *testing.T) {
	_, pts, err := Fig16RebuildBlockSize(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range core.SensitivityConfigs() {
		s := core.Series(pts, i)
		for j := 1; j < len(s); j++ {
			if s[j] > s[j-1]*(1+1e-9) {
				t.Errorf("config %d: events/PB-yr increased with block size: %v", i, s)
			}
		}
	}
	target := core.PaperTarget()
	for _, pt := range pts {
		if pt.X < 64*params.KiB {
			continue
		}
		// FT2-IR5 (index 1) and FT3-NIR (index 2) must meet the target.
		if !target.Meets(pt.Results[1]) || !target.Meets(pt.Results[2]) {
			t.Errorf("at block %v KiB: FT2-IR5=%.3g FT3-NIR=%.3g should both meet the target",
				pt.X/params.KiB, pt.Results[1].EventsPerPBYear, pt.Results[2].EventsPerPBYear)
		}
	}
}

// Figure 17: no difference between 5 and 10 Gb/s; 1 Gb/s strictly worse.
func TestFig17Knee(t *testing.T) {
	_, pts, err := Fig17LinkSpeed(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for i := range core.SensitivityConfigs() {
		s := core.Series(pts, i)
		if s[1] != s[2] {
			t.Errorf("config %d: 5 Gb/s (%.4g) differs from 10 Gb/s (%.4g)", i, s[1], s[2])
		}
		if s[0] <= s[1] {
			t.Errorf("config %d: 1 Gb/s (%.4g) not worse than 5 Gb/s (%.4g)", i, s[0], s[1])
		}
	}
}

// Figure 18: relative insensitivity to node set size for the internal-RAID
// configuration (within roughly an order of magnitude across the range).
func TestFig18Insensitive(t *testing.T) {
	_, pts, err := Fig18NodeSetSize(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := core.Series(pts, 1) // FT2, internal RAID 5
	lo, hi := math.Inf(1), 0.0
	for _, v := range s {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi/lo > 10 {
		t.Errorf("FT2-IR5 spread across N = %.3g×, want < 10×", hi/lo)
	}
}

// Figure 19: every configuration degrades as the redundancy set size grows.
func TestFig19MonotoneInR(t *testing.T) {
	_, pts, err := Fig19RedundancySetSize(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range core.SensitivityConfigs() {
		s := core.Series(pts, i)
		for j := 1; j < len(s); j++ {
			if s[j] < s[j-1]*(1-1e-9) {
				t.Errorf("config %d: reliability improved with larger R: %v", i, s)
			}
		}
	}
}

// Figure 20: very little sensitivity to drives per node (per-PB
// normalization cancels).
func TestFig20Flat(t *testing.T) {
	_, pts, err := Fig20DrivesPerNode(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range core.SensitivityConfigs() {
		s := core.Series(pts, i)
		lo, hi := math.Inf(1), 0.0
		for _, v := range s {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi/lo > 10 {
			t.Errorf("config %d: spread across d = %.3g×, want < 10×", i, hi/lo)
		}
	}
}

func TestAppendixTable(t *testing.T) {
	table, err := AppendixGeneralK(params.Baseline(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(table.Rows))
	}
}

func TestAllFigures(t *testing.T) {
	tables, err := All(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// fig13 + 2×fig14 + 2×fig15 + fig16..fig20 + appendix = 11.
	if len(tables) != 11 {
		t.Fatalf("tables = %d, want 11", len(tables))
	}
	seen := make(map[string]bool)
	for _, table := range tables {
		if table.ID == "" || len(table.Rows) == 0 {
			t.Errorf("table %q is empty", table.ID)
		}
		if seen[table.ID] {
			t.Errorf("duplicate table ID %q", table.ID)
		}
		seen[table.ID] = true
		if out := table.String(); !strings.Contains(out, strings.ToUpper(table.ID[:5])) {
			t.Errorf("%s: rendering missing header", table.ID)
		}
	}
}

func TestTableAddRowMismatchPanics(t *testing.T) {
	table := &Table{ID: "x", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	table.AddRow("only-one")
}
