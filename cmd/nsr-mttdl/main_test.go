package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestRunGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-internal", "raid5", "-ft", "2", "-method", "exact-chain"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	checkGolden(t, "raid5_ft2_exact", stdout.Bytes())
}

func TestRunEmitsValidJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	var out output
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not JSON: %v\n%s", err, stdout.String())
	}
	if out.MTTDLHours <= 0 || out.Configuration == "" {
		t.Errorf("implausible output %+v", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown internal": {"-internal", "raid9"},
		"unknown method":   {"-method", "psychic"},
		"undefined flag":   {"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%s: run accepted %v", name, args)
		}
	}
}

// A NaN lifetime is a parameter error, reported by params.Validate
// before any method runs: closed form (the default method) used to
// report the NaN MTTDL it computed as numerically unusable.
func TestRunRejectsNaNParameters(t *testing.T) {
	for _, args := range [][]string{
		{"-node-mttf", "NaN"},
		{"-drive-mttf", "NaN", "-method", "exact-chain"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil || !strings.HasPrefix(err.Error(), "params: ") || !strings.Contains(err.Error(), "MTTFHours must be positive") {
			t.Errorf("run %v = %v, want the params error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run %v wrote %q", args, stdout.String())
		}
	}
}

func TestUsageGoesToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err != flag.ErrHelp {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr.String(), "-internal") {
		t.Error("usage text did not land on stderr")
	}
	if stdout.Len() != 0 {
		t.Errorf("usage leaked to stdout: %q", stdout.String())
	}
}

// TestRunMetrics: one exact-chain analysis under -metrics records one
// absorption solve, one rebuild-rate computation and one markov.batch
// span fold (the analysis is a one-cell chunk) — the solver layers find
// the snapshot's registry through the run's root span.
func TestRunMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-method", "exact-chain", "-internal", "none", "-ft", "4", "-metrics", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot: %v", err)
	}
	if got := snap.Counters["markov.absorption.solves"]; got != 1 {
		t.Errorf("markov.absorption.solves = %d, want 1", got)
	}
	if got := snap.Counters["rebuild.computes"]; got != 1 {
		t.Errorf("rebuild.computes = %d, want 1", got)
	}
	if got := snap.Histograms["trace.markov.batch.seconds"].Count; got != 1 {
		t.Errorf("trace.markov.batch.seconds count = %d, want 1", got)
	}
}
