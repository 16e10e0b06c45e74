package experiments

import (
	"context"
	"testing"

	"repro/internal/params"
)

// Every enumerated paper claim must hold at the paper's own baseline.
func TestAllClaimsHoldAtBaseline(t *testing.T) {
	claims, err := CheckClaims(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 9 {
		t.Fatalf("claims = %d, want the full set", len(claims))
	}
	for _, c := range claims {
		if !c.Holds {
			t.Errorf("%s: %q does not hold (%s)", c.ID, c.Statement, c.Detail)
		}
	}
}

// Some claims must FAIL when the premises are broken — the checker is not
// a rubber stamp. Halving the rebuild bandwidth by 100× breaks the
// ≥64 KiB block-size guarantee.
func TestClaimsDetectBrokenPremises(t *testing.T) {
	p := params.Baseline()
	p.RebuildBandwidthFraction = 0.001
	claims, err := CheckClaims(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	broken := false
	for _, c := range claims {
		if !c.Holds {
			broken = true
		}
	}
	if !broken {
		t.Error("no claim failed despite crippled rebuild bandwidth")
	}
}

func TestClaimsTable(t *testing.T) {
	table, err := ClaimsTable(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) < 9 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[1] != "yes" {
			t.Errorf("claim %q = %q at baseline", row[0], row[1])
		}
	}
}
