package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/params"
)

func TestAblationDriveClass(t *testing.T) {
	table, err := AblationDriveClass(params.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(table.Rows))
	}
	for _, row := range table.Rows {
		ata, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		prem, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		// Enterprise drives can never be worse.
		if prem > ata*(1+1e-9) {
			t.Errorf("%s: enterprise %v worse than ATA %v", row[0], prem, ata)
		}
		// FT 1 with internal RAID stays over the target even with premium
		// drives — node failures dominate (the brick premise).
		if strings.HasPrefix(row[0], "FT 1, Internal") && prem < 2e-3 {
			t.Errorf("%s: enterprise drives rescued an FT1 configuration (%v)", row[0], prem)
		}
	}
}

func TestEnterprisePresetValid(t *testing.T) {
	p := params.Enterprise()
	if err := p.Validate(); err != nil {
		t.Fatalf("Enterprise preset invalid: %v", err)
	}
	if p.DriveMTTFHours <= params.Baseline().DriveMTTFHours {
		t.Error("enterprise MTTF should exceed baseline")
	}
	if p.HardErrorRate >= params.Baseline().HardErrorRate {
		t.Error("enterprise HER should be lower")
	}
}
