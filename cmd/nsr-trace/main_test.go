package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestRunGenStatsReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-gen", "-out", path, "-nodes", "8", "-drives", "2",
		"-years", "5", "-node-mttf", "200000", "-drive-mttf", "100000", "-seed", "4"},
		&stdout, &stderr); err != nil {
		t.Fatalf("gen: %v (stderr %q)", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "seed 4") {
		t.Errorf("generation seed not reported on stderr: %q", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-stats", path}, &stdout, &stderr); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if !strings.Contains(stdout.String(), "geometry: 8 nodes × 2 drives") {
		t.Errorf("stats geometry wrong:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-replay", path, "-r", "4", "-ft", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("replay: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "applied") || !strings.Contains(out, "objects lost:") {
		t.Errorf("replay report incomplete:\n%s", out)
	}
}

func TestRunGenToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-gen", "-nodes", "4", "-drives", "2", "-seed", "1"}, &stdout, &stderr); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if !strings.HasPrefix(stdout.String(), "#") && !strings.Contains(stdout.String(), ",") {
		t.Errorf("stdout does not look like a CSV trace:\n%.200s", stdout.String())
	}
}

func TestRunMonteCarloDeterministicAcrossWorkerCounts(t *testing.T) {
	outs := make([]string, 2)
	for i, w := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-montecarlo", "6", "-nodes", "8", "-drives", "2",
			"-years", "5", "-node-mttf", "200000", "-drive-mttf", "100000",
			"-r", "4", "-ft", "1", "-seed", "2", "-workers", w},
			&stdout, &stderr); err != nil {
			t.Fatalf("workers %s: %v", w, err)
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("monte carlo tallies differ between worker counts:\n%s\nvs\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], "6 traces") {
		t.Errorf("unexpected summary:\n%s", outs[0])
	}
}

func TestRunRequiresASubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(nil, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "pick one of") {
		t.Errorf("run with no mode = %v, want usage error", err)
	}
	if !strings.Contains(stderr.String(), "-montecarlo") {
		t.Error("usage text not printed to stderr")
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-montecarlo", "2", "-workers", "-1"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("run -workers -1 = %v, want a negative-workers error", err)
	}
}

// readSpans decodes a -trace-out file.
func readSpans(t *testing.T, path string) []obs.SpanRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []obs.SpanRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestRunTraceOutRecordsReplays checks that -trace-out holds the run's
// replays: under -montecarlo one nsr-trace.trace span per trace, each
// parenting one trace.replay span, and under -replay one trace.replay
// span whose rebuild and scrub events match the printed report.
func TestRunTraceOutRecordsReplays(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-nodes", "8", "-drives", "2", "-years", "5",
		"-node-mttf", "200000", "-drive-mttf", "100000", "-r", "4", "-ft", "1", "-scrub", "720"}
	out := filepath.Join(dir, "mc.jsonl")
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-montecarlo", "8", "-seed", "2", "-workers", "2", "-trace-out", out}, common...),
		&stdout, &stderr); err != nil {
		t.Fatalf("montecarlo: %v (stderr %q)", err, stderr.String())
	}
	spans := readSpans(t, out)
	traceOf := make(map[int64]int) // nsr-trace.trace span ID -> trace index
	for _, sp := range spans {
		if sp.Name == "nsr-trace.trace" {
			traceOf[sp.ID] = int(sp.Attrs["trace"].(float64))
		}
	}
	if len(traceOf) != 8 {
		t.Fatalf("got %d nsr-trace.trace spans, want 8", len(traceOf))
	}
	replays := make(map[int]int) // trace index -> trace.replay children
	for _, sp := range spans {
		if sp.Name != "trace.replay" {
			continue
		}
		idx, ok := traceOf[sp.Parent]
		if !ok {
			t.Errorf("trace.replay span %d is not under an nsr-trace.trace span", sp.ID)
		}
		replays[idx]++
	}
	for i := 0; i < 8; i++ {
		if replays[i] != 1 {
			t.Errorf("trace %d has %d trace.replay spans, want 1", i, replays[i])
		}
	}

	csv := filepath.Join(dir, "trace.csv")
	if err := run([]string{"-gen", "-out", csv, "-nodes", "8", "-drives", "2", "-years", "5",
		"-node-mttf", "200000", "-drive-mttf", "100000", "-seed", "4"}, &stdout, &stderr); err != nil {
		t.Fatalf("gen: %v", err)
	}
	out = filepath.Join(dir, "replay.jsonl")
	stdout.Reset()
	if err := run(append([]string{"-replay", csv, "-trace-out", out}, common...), &stdout, &stderr); err != nil {
		t.Fatalf("replay: %v", err)
	}
	var applied, rebuilds, shards, scrubs, repairs int
	if _, err := fmt.Sscanf(stdout.String(), "applied %d events: %d rebuilds (%d shards), %d scrubs (%d latent repairs)",
		&applied, &rebuilds, &shards, &scrubs, &repairs); err != nil {
		t.Fatalf("cannot parse replay report %q: %v", stdout.String(), err)
	}
	var replaySpans int
	for _, sp := range readSpans(t, out) {
		if sp.Name != "trace.replay" {
			continue
		}
		replaySpans++
		count := make(map[string]int)
		for _, ev := range sp.Events {
			count[ev.Name]++
		}
		if count["rebuild"] != rebuilds || count["scrub"] != scrubs {
			t.Errorf("trace.replay events: %d rebuilds, %d scrubs; report says %d, %d",
				count["rebuild"], count["scrub"], rebuilds, scrubs)
		}
	}
	if replaySpans != 1 {
		t.Errorf("got %d trace.replay spans, want 1", replaySpans)
	}
	if rebuilds == 0 || scrubs == 0 {
		t.Errorf("replay exercised %d rebuilds and %d scrubs; the check needs both", rebuilds, scrubs)
	}
}
