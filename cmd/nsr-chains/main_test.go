package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

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
	if err := run([]string{"-internal", "none", "-ft", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	checkGolden(t, "none_ft2_summary", stdout.Bytes())
}

func TestRunDOT(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-internal", "raid5", "-ft", "1", "-dot"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -dot: %v", err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "digraph") || !strings.Contains(out, "->") {
		t.Errorf("not Graphviz dot output:\n%.200s", out)
	}
}

func TestRunSensitivities(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sens"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -sens: %v", err)
	}
	if !strings.Contains(stdout.String(), "elasticity") {
		t.Errorf("missing sensitivity table:\n%s", stdout.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-internal", "raid0"}, &stdout, &stderr); err == nil {
		t.Error("run accepted raid0")
	}
	if err := run([]string{"-ft", "99"}, &stdout, &stderr); err == nil {
		t.Error("run accepted ft 99")
	}
}

// RAID 6 at ft 5 exhausts float64 on the paper's baseline: the solve's
// MTTA comes out negative, so the run must fail instead of printing it
// and its sensitivities.
func TestRunRefusesUnusableMTTA(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-internal", "raid6", "-ft", "5", "-sens"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "not positive and finite") {
		t.Fatalf("run = %v, want the unusable-MTTA error", err)
	}
	if strings.Contains(stdout.String(), "exact MTTDL") {
		t.Errorf("printed an MTTDL:\n%s", stdout.String())
	}
}
