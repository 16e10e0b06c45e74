package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/plan"
)

func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"required initial utilization", "utilization crosses", "expected attrition"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCustomMission(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-years", "10", "-max-util", "0.95"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout.String(), "10.0-year mission") {
		t.Errorf("mission length not reflected:\n%s", stdout.String())
	}
}

// TestRunRejectsBadFlags covers the input-validation contract: values
// outside each flag's domain — including NaN, which every comparison
// chain must be written to catch — are rejected before any math runs.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"non-numeric years", []string{"-years", "banana"}},
		{"negative years", []string{"-years", "-1"}},
		{"NaN years", []string{"-years", "NaN"}},
		{"zero max-util", []string{"-max-util", "0"}},
		{"max-util above one", []string{"-max-util", "1.5"}},
		{"NaN max-util", []string{"-max-util", "NaN"}},
		{"negative threshold", []string{"-threshold", "-0.2"}},
		{"threshold above one", []string{"-threshold", "2"}},
		{"NaN threshold", []string{"-threshold", "NaN"}},
		{"negative optimize target", []string{"-optimize", "-target", "-1"}},
		{"NaN optimize budget", []string{"-optimize", "-budget", "NaN"}},
		{"negative optimize capacity floor", []string{"-optimize", "-min-capacity-pb", "-3"}},
		{"negative workers", []string{"-optimize", "-workers", "-2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if err := run(tc.args, &stdout, &stderr); err == nil {
				t.Errorf("run(%v) accepted invalid input; output:\n%s", tc.args, stdout.String())
			}
		})
	}
}

func TestRunOptimizeSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-optimize", "-top", "5"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -optimize: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"design space: 10800 candidates", "exact Pareto frontier", "events/PB-yr", "showing top 5"} {
		if !strings.Contains(out, want) {
			t.Errorf("optimize output missing %q:\n%s", want, out)
		}
	}
}

// TestRunOptimizeJSONDeterministic checks the CLI end of the
// determinism contract: the JSON result is byte-identical between a
// serial run and a parallel one.
func TestRunOptimizeJSONDeterministic(t *testing.T) {
	var serial, parallel, stderr bytes.Buffer
	if err := run([]string{"-optimize", "-json", "-workers", "1"}, &serial, &stderr); err != nil {
		t.Fatalf("run -optimize -workers 1: %v", err)
	}
	if err := run([]string{"-optimize", "-json", "-workers", "3"}, &parallel, &stderr); err != nil {
		t.Fatalf("run -optimize -workers 3: %v", err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Error("JSON output differs between -workers 1 and -workers 3")
	}
	var res plan.Result
	if err := json.Unmarshal(serial.Bytes(), &res); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(res.Frontier) == 0 {
		t.Error("optimize found an empty frontier on the default space")
	}
	if res.Stats.Enumerated != plan.DefaultSpace().Size() {
		t.Errorf("enumerated %d, want %d", res.Stats.Enumerated, plan.DefaultSpace().Size())
	}
}

// TestRunOptimizeTraceAndMetrics: -optimize roots its search in the
// run's trace — the JSONL holds the nsr-plan root with one plan.search
// child — and the search's metrics reach the -metrics snapshot through
// that root's context.
func TestRunOptimizeTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-optimize", "-top", "1", "-trace-out", tracePath, "-metrics", metricsPath}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var root obs.SpanRecord
	var searches []obs.SpanRecord
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var sp obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		switch sp.Name {
		case "nsr-plan":
			root = sp
		case "plan.search":
			searches = append(searches, sp)
		}
	}
	if root.ID == 0 || root.Parent != 0 {
		t.Fatalf("trace has no nsr-plan root span:\n%s", raw)
	}
	if len(searches) != 1 || searches[0].Parent != root.ID {
		t.Errorf("plan.search spans %+v, want one child of the root (id %d)", searches, root.ID)
	}
	var snap obs.Snapshot
	if raw, err = os.ReadFile(metricsPath); err == nil {
		err = json.Unmarshal(raw, &snap)
	}
	if err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	if snap.Counters["plan.searches"] != 1 || snap.Counters["plan.candidates.enumerated"] != 10800 {
		t.Errorf("plan.searches = %d, plan.candidates.enumerated = %d; want 1, 10800",
			snap.Counters["plan.searches"], snap.Counters["plan.candidates.enumerated"])
	}
}
