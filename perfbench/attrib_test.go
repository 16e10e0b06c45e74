package main

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func attributeOne(t *testing.T, spans []spanRec) *attribution {
	t.Helper()
	a := newAttribution()
	if err := a.add(spans); err != nil {
		t.Fatal(err)
	}
	return a
}

func checkShares(t *testing.T, a *attribution) {
	t.Helper()
	var sum float64
	for _, v := range a.share {
		sum += v
	}
	if !near(sum, a.rootWall) {
		t.Errorf("wall shares sum to %v, root wall is %v", sum, a.rootWall)
	}
}

func TestAttributionNested(t *testing.T) {
	a := attributeOne(t, []spanRec{
		{ID: 1, Name: "root", Start: 0, Dur: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, Dur: 4},
		{ID: 3, Parent: 2, Name: "b", Start: 2, Dur: 2},
	})
	for name, want := range map[string]float64{"root": 6, "a": 2, "b": 2} {
		if !near(a.self[name], want) || !near(a.share[name], want) {
			t.Errorf("%s: self %v share %v, want %v", name, a.self[name], a.share[name], want)
		}
	}
	if a.orphans != 0 {
		t.Errorf("orphans = %d, want 0", a.orphans)
	}
	checkShares(t, a)
}

func TestAttributionOverlappingWorkers(t *testing.T) {
	// Two worker chunks under one sweep overlap on [4,6].
	a := attributeOne(t, []spanRec{
		{ID: 1, Name: "root", Start: 0, Dur: 10},
		{ID: 2, Parent: 1, Name: "sweep", Start: 1, Dur: 8},
		{ID: 3, Parent: 2, Name: "batch", Start: 2, Dur: 4},
		{ID: 4, Parent: 2, Name: "batch", Start: 4, Dur: 4},
	})
	if !near(a.self["sweep"], 2) {
		t.Errorf("sweep self = %v, want 2 (8 minus the union [2,8])", a.self["sweep"])
	}
	if !near(a.busy["batch"], 8) {
		t.Errorf("batch busy = %v, want 8", a.busy["batch"])
	}
	// [2,4] and [6,8] belong to one chunk each; [4,6] is split in half.
	for name, want := range map[string]float64{"root": 2, "sweep": 2, "batch": 6} {
		if !near(a.share[name], want) {
			t.Errorf("%s share = %v, want %v", name, a.share[name], want)
		}
	}
	checkShares(t, a)
}

func TestAttributionOrphan(t *testing.T) {
	// compute is declared under cache, which ended before compute began
	// (the NDJSON sweep's shape): it belongs to the root.
	a := attributeOne(t, []spanRec{
		{ID: 1, Name: "root", Start: 0, Dur: 10},
		{ID: 2, Parent: 1, Name: "cache", Start: 1, Dur: 1},
		{ID: 3, Parent: 2, Name: "compute", Start: 3, Dur: 6},
		{ID: 4, Parent: 3, Name: "sweep", Start: 4, Dur: 4},
	})
	if a.orphans != 1 {
		t.Errorf("orphans = %d, want 1", a.orphans)
	}
	for name, want := range map[string]float64{"root": 3, "cache": 1, "compute": 2, "sweep": 4} {
		if !near(a.self[name], want) || !near(a.share[name], want) {
			t.Errorf("%s: self %v share %v, want %v", name, a.self[name], a.share[name], want)
		}
	}
	checkShares(t, a)
}

func TestAttributionMissingParent(t *testing.T) {
	a := attributeOne(t, []spanRec{
		{ID: 1, Name: "root", Start: 0, Dur: 4},
		{ID: 3, Parent: 2, Name: "lost", Start: 1, Dur: 1},
	})
	if a.orphans != 1 || !near(a.self["root"], 3) {
		t.Errorf("orphans %d, root self %v; want 1 and 3", a.orphans, a.self["root"])
	}
}

func TestAttributionRejectsBadBlocks(t *testing.T) {
	if err := newAttribution().add([]spanRec{{ID: 2, Parent: 1, Name: "x", Dur: 1}}); err == nil {
		t.Error("block without a root accepted")
	}
	if err := newAttribution().add([]spanRec{{ID: 1, Name: "a", Dur: 1}, {ID: 2, Name: "b", Dur: 1}}); err == nil {
		t.Error("block with two roots accepted")
	}
}

// TestAttributionReadsTracerJSONL feeds real obs.Tracer exports, two
// requests back to back, through the JSONL parser.
func TestAttributionReadsTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		tr := obs.NewTracer()
		ctx, root := tr.Start(context.Background(), "serve.request")
		root.SetAttr("id", "q")
		cctx, c := obs.StartSpan(ctx, "serve.compute")
		_, leaf := obs.StartSpan(cctx, "core.sweep")
		leaf.End()
		c.End()
		root.End()
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	a := newAttribution()
	if err := a.addJSONL(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.busy["core.sweep"]; a.requests != 2 || !ok || a.orphans != 0 {
		t.Errorf("requests %d, core.sweep seen %v, orphans %d", a.requests, ok, a.orphans)
	}
	checkShares(t, a)
}
