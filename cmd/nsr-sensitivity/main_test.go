package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunSingleFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "16", "-workers", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "FIG16") {
		t.Errorf("figure 16 table missing:\n%.400s", stdout.String())
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-fig", "13"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("run -fig 13 = %v, want unknown-figure error", err)
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workers", "-3"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("run -workers -3 = %v, want a negative-workers error", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("rejected run produced output: %q", stdout.String())
	}
}

// TestRunTraceAndMetrics: a figure's sweeps run under the run's root
// span — figure 14's two sweeps are two core.sweep children of the
// nsr-sensitivity root — and their rebuild-rate metrics reach the
// -metrics snapshot through that root's context.
func TestRunTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-fig", "14", "-trace-out", tracePath, "-metrics", metricsPath}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var root obs.SpanRecord
	var sweeps []obs.SpanRecord
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var sp obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch sp.Name {
		case "nsr-sensitivity":
			root = sp
		case "core.sweep":
			sweeps = append(sweeps, sp)
		}
	}
	if root.ID == 0 || root.Parent != 0 {
		t.Fatalf("trace has no nsr-sensitivity root span:\n%.400s", raw)
	}
	if len(sweeps) != 2 {
		t.Errorf("core.sweep spans = %d, want 2 (figure 14 sweeps twice)", len(sweeps))
	}
	for _, sw := range sweeps {
		if sw.Parent != root.ID {
			t.Errorf("core.sweep span %d has parent %d, want the root %d", sw.ID, sw.Parent, root.ID)
		}
	}
	var snap obs.Snapshot
	if raw, err = os.ReadFile(metricsPath); err == nil {
		err = json.Unmarshal(raw, &snap)
	}
	if err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	if snap.Counters["rebuild.computes"] == 0 || snap.Histograms["trace.core.sweep.seconds"].Count != 2 {
		t.Errorf("rebuild.computes = %d, trace.core.sweep.seconds count = %d; want > 0, 2",
			snap.Counters["rebuild.computes"], snap.Histograms["trace.core.sweep.seconds"].Count)
	}
}
