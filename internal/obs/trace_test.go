package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Start(context.Background(), "root")
	root.SetAttr("kind", "test")

	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.End()
	child.End()

	// A sibling started from the root context parents to the root, not to
	// the (finished) child.
	_, sib := StartSpan(ctx, "sibling")
	sib.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(spans), spans)
	}
	byName := make(map[string]SpanRecord)
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %d, want child %d", byName["grandchild"].Parent, byName["child"].ID)
	}
	if byName["sibling"].Parent != byName["root"].ID {
		t.Errorf("sibling parent = %d, want root %d", byName["sibling"].Parent, byName["root"].ID)
	}
	if byName["root"].Attrs["kind"] != "test" {
		t.Errorf("root attrs = %v", byName["root"].Attrs)
	}
	if byName["root"].Seconds < byName["child"].Seconds {
		t.Errorf("root (%v s) shorter than its child (%v s)",
			byName["root"].Seconds, byName["child"].Seconds)
	}
}

func TestStartSpanDisabledPath(t *testing.T) {
	ctx := context.Background()
	rctx, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan on a bare context returned a live span")
	}
	if rctx != ctx {
		t.Error("disabled StartSpan derived a new context")
	}
	// All methods must be nil-safe.
	sp.SetAttr("k", "v")
	sp.End()
}

// TestStartSpanDisabledZeroAlloc pins the tracing-disabled hot path at
// zero allocations — the contract that lets StartSpan sit inside solver
// loops unconditionally.
func TestStartSpanDisabledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := StartSpan(ctx, "sparse.refactor")
		sp.SetAttr("n", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled StartSpan allocates %v per op, want 0", allocs)
	}
}

func TestTracerJSONLAndFold(t *testing.T) {
	reg := NewRegistry()
	folder := NewSpanFolder(reg)
	tr := NewTracer()
	tr.SetFold(folder)
	ctx, root := tr.Start(context.Background(), "req")
	_, a := StartSpan(ctx, "stage.a")
	a.End()
	_, b := StartSpan(ctx, "stage.a")
	b.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
	}
	snap := reg.Snapshot()
	if h, ok := snap.Histograms["trace.stage.a.seconds"]; !ok || h.Count != 2 {
		t.Errorf("trace.stage.a.seconds = %+v, want count 2", h)
	}
	if h, ok := snap.Histograms["trace.req.seconds"]; !ok || h.Count != 1 {
		t.Errorf("trace.req.seconds = %+v, want count 1", h)
	}
}

type testBundle struct{ c *Counter }

func newTestBundle(reg *Registry) *testBundle { return &testBundle{c: reg.Counter("bundle.c")} }

// TestBundleRidesTheSpan: a span's context resolves its tracer's folding
// registry and one bundle per registry; two tracers folding into two
// registries keep separate bundles, and a context with no span — or a
// span of a tracer that folds nowhere — resolves nil without
// allocating.
func TestBundleRidesTheSpan(t *testing.T) {
	regA, regB := NewRegistry(), NewRegistry()
	ctxs := make([]context.Context, 2)
	for i, reg := range []*Registry{regA, regB} {
		tr := NewTracer()
		tr.SetFold(NewSpanFolder(reg))
		var root *Span
		ctxs[i], root = tr.Start(context.Background(), "req")
		defer root.End()
	}
	child, sp := StartSpan(ctxs[0], "stage")
	defer sp.End()
	if RegistryFrom(child) != regA || RegistryFrom(ctxs[1]) != regB {
		t.Fatal("RegistryFrom does not return the span's folding registry")
	}
	a := Bundle(child, newTestBundle)
	if a == nil || Bundle(ctxs[0], newTestBundle) != a {
		t.Fatal("Bundle built a second bundle on one registry")
	}
	a.c.Inc()
	Bundle(ctxs[1], newTestBundle).c.Add(2)
	if regA.Counter("bundle.c").Value() != 1 || regB.Counter("bundle.c").Value() != 2 {
		t.Errorf("bundle counts mixed: A %d, B %d", regA.Counter("bundle.c").Value(), regB.Counter("bundle.c").Value())
	}

	unfolded, usp := NewTracer().Start(context.Background(), "req")
	defer usp.End()
	for name, ctx := range map[string]context.Context{"no span": context.Background(), "unfolded span": unfolded} {
		if allocs := testing.AllocsPerRun(1000, func() {
			if Bundle(ctx, newTestBundle) != nil {
				t.Fatalf("%s resolved a bundle", name)
			}
		}); allocs != 0 {
			t.Errorf("Bundle on %s allocated %v/op", name, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() { Bundle(child, newTestBundle).c.Inc() }); allocs != 0 {
		t.Errorf("Bundle on a folding span allocated %v/op", allocs)
	}
}

func TestTracerNoRetainStillFolds(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer()
	tr.SetRetain(false)
	tr.SetFold(NewSpanFolder(reg))
	ctx, root := tr.Start(context.Background(), "req")
	_, sp := StartSpan(ctx, "stage")
	sp.End()
	root.End()
	snap := reg.Snapshot()
	if folded := snap.Histograms["trace.req.seconds"].Count + snap.Histograms["trace.stage.seconds"].Count; folded != 2 {
		t.Errorf("folded %d spans, want 2", folded)
	}
	if got := tr.Spans(); len(got) != 0 {
		t.Errorf("non-retaining tracer kept %d spans", len(got))
	}
}

// TestSpanEventsEncoding pins the event stream's wire shape: a span
// without events encodes with no "events" key (byte for byte the span
// record without events), and a recording span's events come back in
// emission order with their timestamps and attrs.
func TestSpanEventsEncoding(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Start(context.Background(), "run")
	_, plain := StartSpan(ctx, "plain")
	plain.SetAttr("k", 1)
	plain.End()
	_, loud := StartSpan(ctx, "loud")
	if !loud.Recording() {
		t.Fatal("span of a retaining tracer is not recording")
	}
	loud.Event("rebuild", 1.5, map[string]any{"shards": 3})
	loud.Event("data_loss", 2.5, nil)
	loud.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	var withEvents int
	for _, line := range lines {
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if rec.Name != "loud" {
			if strings.Contains(line, `"events"`) {
				t.Errorf("span %q without events encodes an events key: %s", rec.Name, line)
			}
			continue
		}
		withEvents++
		if len(rec.Events) != 2 || rec.Events[0].Name != "rebuild" || rec.Events[0].T != 1.5 ||
			rec.Events[0].Attrs["shards"] != 3.0 || rec.Events[1].Name != "data_loss" ||
			rec.Events[1].T != 2.5 || rec.Events[1].Attrs != nil {
			t.Errorf("events did not round-trip: %+v", rec.Events)
		}
	}
	if withEvents != 1 {
		t.Errorf("found %d spans with events, want 1", withEvents)
	}
	if want := `{"id":2,"parent":1,"span":"plain","start":`; !strings.HasPrefix(lines[1], want) {
		t.Errorf("plain span line = %s, want prefix %s", lines[1], want)
	}

	quiet := NewTracer()
	quiet.SetRetain(false)
	_, sp := quiet.Start(context.Background(), "fold-only")
	if sp.Recording() {
		t.Error("span of a non-retaining tracer is recording")
	}
	sp.Event("dropped", 1, nil)
	sp.End()
	var nilSpan *Span
	nilSpan.Event("dropped", 1, nil)
}

// TestConcurrentSpanHammer drives one tracer from many goroutines — the
// sweep-cell shape — and is the -race probe for span emission.
func TestConcurrentSpanHammer(t *testing.T) {
	reg := NewRegistry()
	folder := NewSpanFolder(reg)
	tr := NewTracer()
	tr.SetFold(folder)
	ctx, root := tr.Start(context.Background(), "sweep")

	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cctx, cell := StartSpan(ctx, "cell")
				cell.SetAttr("w", w)
				_, inner := StartSpan(cctx, "solve")
				inner.End()
				cell.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()

	spans := tr.Spans()
	if want := workers*perWorker*2 + 1; len(spans) != want {
		t.Fatalf("got %d spans, want %d", len(spans), want)
	}
	seen := make(map[int64]bool, len(spans))
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
	snap := reg.Snapshot()
	if h := snap.Histograms["trace.cell.seconds"]; h.Count != workers*perWorker {
		t.Errorf("trace.cell.seconds count = %d, want %d", h.Count, workers*perWorker)
	}
}

// TestSnapshotEncodingDeterministic pins satellite behavior: two
// snapshots of the same registry state encode to identical bytes, so
// /metrics?format=json diffs cleanly across scrapes.
func TestSnapshotEncodingDeterministic(t *testing.T) {
	reg := NewRegistry()
	// Register in an order that disagrees with sorted order.
	for _, n := range []string{"zeta", "alpha", "mid.dle", "beta.2"} {
		reg.Counter(n).Inc()
	}
	reg.Gauge("g.two").Set(2)
	reg.Gauge("g.one").Set(1)
	reg.Histogram("h.b", []float64{1, 2}).Observe(1.5)
	reg.Histogram("h.a", []float64{1, 2}).Observe(0.5)
	reg.SetLabel("seed", "7")

	var first, second bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot().WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("snapshot encodings differ:\n%s\nvs\n%s", first.String(), second.String())
	}
}
