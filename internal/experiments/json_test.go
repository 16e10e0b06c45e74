package experiments

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/params"
)

func TestJSONRoundTrip(t *testing.T) {
	orig, _, err := Fig13Baseline(context.Background(), params.Baseline(), 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeJSON([]*Table{orig})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	got := tables[0]
	if got.ID != orig.ID || got.Title != orig.Title {
		t.Errorf("metadata mismatch: %q/%q", got.ID, got.Title)
	}
	if len(got.Rows) != len(orig.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(orig.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if got.Rows[i][j] != orig.Rows[i][j] {
				t.Errorf("cell (%d,%d) = %q, want %q", i, j, got.Rows[i][j], orig.Rows[i][j])
			}
		}
	}
	if len(got.Notes) != len(orig.Notes) {
		t.Errorf("notes = %d, want %d", len(got.Notes), len(orig.Notes))
	}
}

func TestJSONRaggedRowRejected(t *testing.T) {
	var tbl Table
	err := json.Unmarshal([]byte(`{"id":"x","title":"t","columns":["a","b"],"rows":[["only"]]}`), &tbl)
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("err = %v, want ragged-row rejection", err)
	}
}

func TestDecodeJSONMissingKey(t *testing.T) {
	if _, err := DecodeJSON([]byte(`{"other": []}`)); err == nil {
		t.Error("document without tables key accepted")
	}
	if _, err := DecodeJSON([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestAblationScrubTable(t *testing.T) {
	table, err := AblationScrub(params.Baseline(), 1.0/params.HoursPerYear)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(ScrubIntervalGrid) {
		t.Fatalf("rows = %d, want %d", len(table.Rows), len(ScrubIntervalGrid))
	}
	if len(table.Columns) != 4 {
		t.Fatalf("columns = %d, want 4", len(table.Columns))
	}
	// Events must be non-decreasing down the column as the scrub interval
	// grows.
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for _, row := range table.Rows {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("cell %q: %v", row[col], err)
			}
			if v < prev*(1-1e-9) {
				t.Errorf("column %d: events decreased with longer scrub interval", col)
			}
			prev = v
		}
	}
}
