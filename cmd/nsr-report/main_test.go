package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunJSONAndCSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	// Two ablation trials keep the report fast; the tables' structure is
	// what the test pins down, not the Monte Carlo values.
	err := run([]string{"-json", "-trials", "2", "-csv-dir", dir, "-workers", "1"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	// Stdout is "wrote N CSV tables..." followed by the JSON document.
	out := stdout.String()
	idx := strings.IndexByte(out, '{')
	if idx < 0 {
		t.Fatalf("no JSON document on stdout:\n%.400s", out)
	}
	var doc struct {
		Tables []struct {
			ID      string     `json:"id"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal([]byte(out[idx:]), &doc); err != nil {
		t.Fatalf("stdout is not a JSON table document: %v", err)
	}
	tables := doc.Tables
	if len(tables) == 0 {
		t.Fatal("no tables emitted")
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		seen[tb.ID] = true
		if len(tb.Rows) == 0 {
			t.Errorf("table %s has no rows", tb.ID)
		}
	}
	if !seen["fig13"] {
		t.Errorf("baseline table fig13 missing; got %v", seen)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*.csv")); len(matches) != len(tables) {
		t.Errorf("CSV dir holds %d files, JSON has %d tables", len(matches), len(tables))
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workers", "-1"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("run -workers -1 = %v, want a negative-workers error", err)
	}
}
