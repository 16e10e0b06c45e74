package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/params"
)

func TestAblationModelAssumptions(t *testing.T) {
	table, err := AblationModelAssumptions(context.Background(), 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(table.Rows))
	}
	// Every DES/chain ratio should parse and sit within a factor of ~3.
	for _, row := range table.Rows {
		ratioStr, _, ok := strings.Cut(row[3], "±")
		if !ok {
			t.Fatalf("ratio cell %q", row[3])
		}
		ratio, err := strconv.ParseFloat(ratioStr, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("%s: DES/chain = %v, wildly off", row[0], ratio)
		}
	}
	if _, err := AblationModelAssumptions(context.Background(), 1, 1); err == nil {
		t.Error("trials=1 accepted")
	}
}

func TestAblationCorrelatedFailuresShape(t *testing.T) {
	table, err := AblationCorrelatedFailures(context.Background(), 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(table.Rows))
	}
	// MTTDL must decrease as the correlated share grows.
	prev := -1.0
	for i, row := range table.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && v >= prev {
			t.Errorf("MTTDL not decreasing with correlated share: %v", table.Rows)
		}
		prev = v
	}
	if _, err := AblationCorrelatedFailures(context.Background(), 1, 1); err == nil {
		t.Error("trials=1 accepted")
	}
}

func TestAblationElasticities(t *testing.T) {
	table, err := AblationElasticities(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Columns) != 4 {
		t.Fatalf("columns = %d, want 4", len(table.Columns))
	}
	if len(table.Rows) < 5 {
		t.Errorf("rows = %d, want the full knob set", len(table.Rows))
	}
	// First row is node MTTF; the FT2-IR5 column (index 2) should be
	// strongly negative.
	found := false
	for _, row := range table.Rows {
		if row[0] == "node MTTF" {
			found = true
			v, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			if v > -2 {
				t.Errorf("FT2-IR5 node-MTTF elasticity = %v, want < -2", v)
			}
		}
	}
	if !found {
		t.Error("node MTTF row missing")
	}
}

func TestAblationBottleneck(t *testing.T) {
	table, err := AblationBottleneck(params.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	// Low link speeds network-limited, high ones disk-limited, in order.
	seenDisk := false
	for _, row := range table.Rows {
		switch row[2] {
		case "disk":
			seenDisk = true
		case "network":
			if seenDisk {
				t.Error("network-limited row after disk-limited row")
			}
		default:
			t.Errorf("unknown bottleneck %q", row[2])
		}
	}
	if !seenDisk {
		t.Error("no disk-limited row at high link speeds")
	}
	bad := params.Baseline()
	bad.NodeSetSize = 0
	if _, err := AblationBottleneck(bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSparesPlanTable(t *testing.T) {
	table, err := SparesPlan(params.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (years 0..5)", len(table.Rows))
	}
	if table.Rows[0][1] != "100.0%" {
		t.Errorf("year 0 surviving capacity = %q", table.Rows[0][1])
	}
	if len(table.Notes) == 0 || !strings.Contains(table.Notes[0], "75%") {
		t.Errorf("notes should connect to the paper's 75%% baseline: %v", table.Notes)
	}
}

func TestAblationsSuite(t *testing.T) {
	tables, err := Ablations(context.Background(), params.Baseline(), 300, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 10 {
		t.Fatalf("tables = %d, want 10", len(tables))
	}
	ids := map[string]bool{}
	for _, tb := range tables {
		ids[tb.ID] = true
	}
	for _, want := range []string{"ablation-assumptions", "ablation-shocks", "ablation-elasticity", "ablation-bottleneck", "ablation-scrub", "ablation-mesh", "ablation-drives", "mission", "performance", "spares-plan"} {
		if !ids[want] {
			t.Errorf("missing table %s", want)
		}
	}
}
