package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/params"
)

func TestTableCSV(t *testing.T) {
	table, _, err := Fig13Baseline(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := table.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(&buf)
	r.FieldsPerRecord = -1 // note rows have a single field
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+9+len(table.Notes) {
		t.Fatalf("rows = %d, want header + 9 + %d notes", len(rows), len(table.Notes))
	}
	if rows[0][0] != "configuration" {
		t.Errorf("header = %v", rows[0])
	}
	if !strings.HasPrefix(rows[len(rows)-1][0], "# ") {
		t.Errorf("last row should be a note: %v", rows[len(rows)-1])
	}
}

func TestWriteCSVDir(t *testing.T) {
	dir := t.TempDir()
	t13, _, err := Fig13Baseline(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t17, _, err := Fig17LinkSpeed(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVDir(filepath.Join(dir, "out"), []*Table{t13, t17}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig13", "fig17"} {
		data, err := os.ReadFile(filepath.Join(dir, "out", id+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s.csv is empty", id)
		}
	}
}
