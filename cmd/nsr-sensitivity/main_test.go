package main

import (
	"bytes"
	"strings"
	"testing"
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
