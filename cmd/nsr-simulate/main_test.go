package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDESSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-mode", "des", "-trials", "20", "-seed", "3"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "seed 3") {
		t.Errorf("effective seed not echoed:\n%s", out)
	}
	for _, cfg := range []string{"FT 1, no internal RAID", "FT 2, no internal RAID", "FT 1, internal RAID 5"} {
		if !strings.Contains(out, cfg) {
			t.Errorf("scenario %q missing:\n%s", cfg, out)
		}
	}
}

func TestRunDESDeterministicAcrossWorkerCounts(t *testing.T) {
	outs := make([]string, 2)
	for i, w := range []string{"2", "4"} {
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-mode", "des", "-trials", "20", "-seed", "9", "-workers", w}, &stdout, &stderr); err != nil {
			t.Fatalf("workers %s: %v", w, err)
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("output differs between worker counts:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

func TestRunRejectsBadMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-mode", "quantum"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("run -mode quantum = %v, want unknown-mode error", err)
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-workers", "-2"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("run -workers -2 = %v, want a negative-workers error", err)
	}
}

func TestRunFleetSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-fleet", "-bricks", "20000", "-years", "1", "-seed", "5"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"seed 5", "Fleet DES: 20000 bricks",
		"node sets", "data losses", "per-set MTTDL"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet output missing %q:\n%s", want, out)
		}
	}
}

func TestRunFleetRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-fleet", "-engine", "wheel"}, // -engine is gone: an unknown flag
		{"-fleet", "-internal", "raid7"},
		{"-fleet", "-ft", "0"},
		{"-fleet", "-bricks", "0"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run %v accepted", args)
		}
	}
}
