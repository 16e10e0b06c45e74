package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// readSpans decodes a TraceWriter buffer (JSONL, possibly several
// requests' trees concatenated) into records.
func readSpans(t *testing.T, buf *bytes.Buffer) []obs.SpanRecord {
	t.Helper()
	var spans []obs.SpanRecord
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// spanIndex maps span names to their records (a name may repeat; all
// records are kept).
func spanIndex(spans []obs.SpanRecord) map[string][]obs.SpanRecord {
	idx := make(map[string][]obs.SpanRecord)
	for _, s := range spans {
		idx[s.Name] = append(idx[s.Name], s)
	}
	return idx
}

// hasAncestor reports whether span s transitively descends from a span
// named want within the same trace.
func hasAncestor(spans []obs.SpanRecord, s obs.SpanRecord, want string) bool {
	byID := make(map[int64]obs.SpanRecord, len(spans))
	for _, r := range spans {
		byID[r.ID] = r
	}
	for p := s.Parent; p != 0; {
		r, ok := byID[p]
		if !ok {
			return false
		}
		if r.Name == want {
			return true
		}
		p = r.Parent
	}
	return false
}

// TestAnalyzeSpanTree posts an exact-chain analyze request with tracing
// on and asserts the exported span tree covers the full request path:
// root → canonicalize/cache → compute → one one-cell chunk solve.
func TestAnalyzeSpanTree(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{TraceWriter: &buf})
	h := s.Handler()
	w := postJSON(t, h, "/v1/analyze", `{"config":{"internal":"raid5","ft":2},"method":"exact-chain"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body.String())
	}
	spans := readSpans(t, &buf)
	idx := spanIndex(spans)
	for _, name := range []string{
		"serve.request", "serve.canonicalize", "serve.cache",
		"serve.compute", "markov.batch",
	} {
		if len(idx[name]) == 0 {
			t.Errorf("trace missing %q span; have %v", name, names(spans))
		}
	}
	// The analysis is one chunk of one cell, a direct child of the
	// compute span under the request root.
	if got := len(idx["markov.batch"]); got != 1 {
		t.Errorf("markov.batch spans = %d, want 1", got)
	}
	for _, b := range idx["markov.batch"] {
		if b.Attrs["cells"] != float64(1) {
			t.Errorf("markov.batch cells = %v, want 1", b.Attrs["cells"])
		}
		if len(idx["serve.compute"]) == 0 || b.Parent != idx["serve.compute"][0].ID || !hasAncestor(spans, b, "serve.request") {
			t.Errorf("markov.batch span %d not a child of serve.compute under serve.request", b.ID)
		}
	}
	for _, name := range []string{"chain.freeze", "markov.solve"} {
		if got := len(idx[name]); got != 0 {
			t.Errorf("%s spans = %d, want 0 (analyze solves as a chunk)", name, got)
		}
	}
	// Roots carry the request identity.
	root := idx["serve.request"][0]
	if root.Parent != 0 || root.Attrs["endpoint"] != "analyze" {
		t.Errorf("bad root span: %+v", root)
	}
	if got, want := w.Header().Get("X-Request-ID"), root.Attrs["id"]; got == "" || got != want {
		t.Errorf("X-Request-ID %q does not match root span id %v", got, want)
	}
}

// traceSweepBody is slowSweepBody's shape at ft=8 — the CSR pattern is
// a function of the fault tolerance (refill keeps structural zeros, see
// DESIGN.md §9), and no other test solves an ft=8 chain, so the pooled
// Solvers' MRU caches (process-wide, warm with the ft=7 pattern after
// the cancellation tests) cannot satisfy the first cell: the trace must
// contain a fresh sparse.symbolic analysis.
func traceSweepBody(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", 200_000+i)
	}
	return `{"params":{"redundancy_set_size":48},
		"configs":[{"internal":"none","ft":8}],
		"method":"exact-chain",
		"parameter":"drive_mttf_hours",
		"values":[` + strings.Join(vals, ",") + `]}`
}

// TestSweepSpanTree pins the span-tree shape of sweeps. An exact-chain
// sweep onto the sparse CTMC path (wide chains at r=48, ft=8) amortizes
// per-cell bookkeeping into one "markov.batch" span per chunk
// (DESIGN.md §11); the closed-form sweep of the same grid ("percell")
// runs on the same chunks and opens no span below core.sweep at all.
func TestSweepSpanTree(t *testing.T) {
	// One worker ⇒ one pooled solver serves every cell (and one chunk on
	// the batched path), so the span counts below are deterministic on
	// any machine.

	t.Run("batched", func(t *testing.T) {
		var buf bytes.Buffer
		s := New(Options{Workers: 1, MaxGridCells: 65536, TraceWriter: &buf})
		h := s.Handler()
		w := postJSON(t, h, "/v1/sweep", traceSweepBody(4))
		if w.Code != http.StatusOK {
			t.Fatalf("sweep: %d %s", w.Code, w.Body.String())
		}
		spans := readSpans(t, &buf)
		idx := spanIndex(spans)
		for _, name := range []string{
			"serve.request", "serve.cache", "serve.compute", "core.sweep",
			"markov.batch",
		} {
			if len(idx[name]) == 0 {
				t.Errorf("sweep trace missing %q span; have %v", name, names(spans))
			}
		}
		// 4 cells, one worker, default 256-cell chunks: exactly one chunk
		// span, hung off the sweep under the request root.
		if got := len(idx["markov.batch"]); got != 1 {
			t.Errorf("markov.batch spans = %d, want 1", got)
		}
		for _, ch := range idx["markov.batch"] {
			if !hasAncestor(spans, ch, "core.sweep") || !hasAncestor(spans, ch, "serve.request") {
				t.Errorf("markov.batch span %d not rooted under core.sweep/serve.request", ch.ID)
			}
		}
		// No per-cell spans on the batch path — the chunk span replacing
		// them is the amortization the engine exists for.
		if got := len(idx["core.cell"]); got != 0 {
			t.Errorf("core.cell spans = %d on the batched path, want 0", got)
		}

		// The same request without a TraceWriter still feeds the stage
		// histograms on /metrics (fold-only mode).
		s2 := New(Options{Workers: 1, MaxGridCells: 65536})
		h2 := s2.Handler()
		if w := postJSON(t, h2, "/v1/sweep", traceSweepBody(4)); w.Code != http.StatusOK {
			t.Fatalf("untraced sweep: %d %s", w.Code, w.Body.String())
		}
		snap := s2.Registry().Snapshot()
		for _, hist := range []string{
			"trace.serve.request.seconds", "trace.core.sweep.seconds",
			"trace.markov.batch.seconds",
		} {
			if _, ok := snap.Histograms[hist]; !ok {
				t.Errorf("fold-only server missing %q histogram", hist)
			}
		}
	})

	t.Run("percell", func(t *testing.T) {
		body := strings.Replace(traceSweepBody(4), "exact-chain", "closed-form", 1)
		var buf bytes.Buffer
		s := New(Options{Workers: 1, MaxGridCells: 65536, TraceWriter: &buf})
		w := postJSON(t, s.Handler(), "/v1/sweep", body)
		if w.Code != http.StatusOK {
			t.Fatalf("sweep: %d %s", w.Code, w.Body.String())
		}
		spans := readSpans(t, &buf)
		idx := spanIndex(spans)
		for _, name := range []string{
			"serve.request", "serve.cache", "serve.compute", "core.sweep",
		} {
			if len(idx[name]) == 0 {
				t.Errorf("sweep trace missing %q span; have %v", name, names(spans))
			}
		}
		// No span below the sweep: closed-form cells bind no solver and
		// open no per-cell span.
		sweepID := idx["core.sweep"][0].ID
		for _, sp := range spans {
			if hasAncestor(spans, sp, "core.sweep") {
				t.Errorf("%s span %d under core.sweep (parent %d, sweep %d) on a closed-form sweep", sp.Name, sp.ID, sp.Parent, sweepID)
			}
		}

		// Fold-only mode still times the sweep.
		s2 := New(Options{Workers: 1, MaxGridCells: 65536})
		if w := postJSON(t, s2.Handler(), "/v1/sweep", body); w.Code != http.StatusOK {
			t.Fatalf("untraced sweep: %d %s", w.Code, w.Body.String())
		}
		snap := s2.Registry().Snapshot()
		for _, hist := range []string{"trace.serve.request.seconds", "trace.core.sweep.seconds"} {
			if _, ok := snap.Histograms[hist]; !ok {
				t.Errorf("fold-only server missing %q histogram", hist)
			}
		}
		if _, ok := snap.Histograms["trace.core.cell.seconds"]; ok {
			t.Error("fold-only server has a trace.core.cell.seconds histogram; closed-form cells open no span")
		}
	})
}

// sparseAnalyzeBody is an exact-chain analyze request on traceSweepBody's
// topology (r=48, ft=8: 511 transient states, past the sparse crossover)
// at drive MTTF x.
func sparseAnalyzeBody(x int) string {
	return fmt.Sprintf(`{"params":{"redundancy_set_size":48,"drive_mttf_hours":%d},
		"config":{"internal":"none","ft":8},"method":"exact-chain"}`, x)
}

// TestAnalyzeSparseSpanTree pins the analyze request's span tree on the
// sparse route: the solve is one markov.batch chunk of one cell under
// serve.compute, a second request of the same topology reuses the
// pooled solver's symbolic analysis (no sparse.symbolic span), and a
// server without a TraceWriter still folds the chunk into /metrics.
func TestAnalyzeSparseSpanTree(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{TraceWriter: &buf})
	h := s.Handler()
	if w := postJSON(t, h, "/v1/analyze", sparseAnalyzeBody(200_000)); w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body.String())
	}
	spans := readSpans(t, &buf)
	idx := spanIndex(spans)
	for _, name := range []string{"serve.request", "serve.compute", "markov.batch"} {
		if len(idx[name]) == 0 {
			t.Errorf("analyze trace missing %q span; have %v", name, names(spans))
		}
	}
	for _, b := range idx["markov.batch"] {
		if b.Attrs["cells"] != float64(1) || b.Attrs["sparse"] != true {
			t.Errorf("markov.batch attrs = %v, want cells=1 on the sparse route", b.Attrs)
		}
		if !hasAncestor(spans, b, "serve.compute") {
			t.Errorf("markov.batch span %d not under serve.compute", b.ID)
		}
	}

	// Same topology, different rates: the chunk refactors on the cached
	// symbolic analysis.
	buf.Reset()
	if w := postJSON(t, h, "/v1/analyze", sparseAnalyzeBody(200_001)); w.Code != http.StatusOK {
		t.Fatalf("second analyze: %d %s", w.Code, w.Body.String())
	}
	spans = readSpans(t, &buf)
	idx = spanIndex(spans)
	if got := len(idx["markov.batch"]); got != 1 {
		t.Errorf("second analyze: markov.batch spans = %d, want 1", got)
	}
	if got := len(idx["sparse.symbolic"]); got != 0 {
		t.Errorf("second analyze of the same topology ran %d symbolic analyses, want 0", got)
	}

	// Fold-only mode covers the chunk.
	s2 := New(Options{})
	if w := postJSON(t, s2.Handler(), "/v1/analyze", sparseAnalyzeBody(200_002)); w.Code != http.StatusOK {
		t.Fatalf("untraced analyze: %d %s", w.Code, w.Body.String())
	}
	snap := s2.Registry().Snapshot()
	if _, ok := snap.Histograms["trace.markov.batch.seconds"]; !ok {
		t.Error("fold-only server missing \"trace.markov.batch.seconds\" histogram")
	}
}

// TestPlanSpanTree pins the plan search's span nesting: each phase hangs
// off plan.search, and the confirm phase's batch solves hang off
// plan.confirm, so the phase's self time excludes the solves it waits on.
func TestPlanSpanTree(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{TraceWriter: &buf})
	w := postJSON(t, s.Handler(), "/v1/plan", smallPlanBody)
	if w.Code != http.StatusOK {
		t.Fatalf("plan: %d %s", w.Code, w.Body.String())
	}
	spans := readSpans(t, &buf)
	idx := spanIndex(spans)
	if len(idx["plan.search"]) != 1 || len(idx["plan.confirm"]) != 1 {
		t.Fatalf("want one plan.search and one plan.confirm span; have %v", names(spans))
	}
	search, confirm := idx["plan.search"][0], idx["plan.confirm"][0]
	for _, name := range []string{"plan.enumerate", "plan.prune", "plan.confirm", "plan.rank"} {
		if len(idx[name]) != 1 || idx[name][0].Parent != search.ID {
			t.Errorf("%s: want one span whose parent is plan.search; have %+v", name, idx[name])
		}
	}
	if len(idx["markov.batch"]) == 0 {
		t.Fatalf("plan trace has no markov.batch span; have %v", names(spans))
	}
	for _, b := range idx["markov.batch"] {
		if b.Parent != confirm.ID {
			t.Errorf("markov.batch span %d has parent %d, want plan.confirm (%d)", b.ID, b.Parent, confirm.ID)
		}
	}
}

// TestSweepStreamSpansNested checks that every span of a streamed sweep
// lies inside its parent's interval: the cache span stays open across
// the solve it parents, as on the buffered path.
func TestSweepStreamSpansNested(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{MaxGridCells: 65536, TraceWriter: &buf})
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(traceSweepBody(4)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"done":true`) {
		t.Fatalf("stream: %d %s", w.Code, w.Body.String())
	}
	spans := readSpans(t, &buf)
	byID := make(map[int64]obs.SpanRecord, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	idx := spanIndex(spans)
	for _, name := range []string{"serve.request", "serve.cache", "serve.compute", "core.sweep"} {
		if len(idx[name]) == 0 {
			t.Errorf("stream trace missing %q span; have %v", name, names(spans))
		}
	}
	const eps = 1e-9 // rounding of exported offsets
	for _, sp := range spans {
		if sp.Parent == 0 {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("%s span %d: parent %d not in trace", sp.Name, sp.ID, sp.Parent)
			continue
		}
		if sp.StartSeconds+eps < p.StartSeconds ||
			sp.StartSeconds+sp.Seconds > p.StartSeconds+p.Seconds+eps {
			t.Errorf("%s span [%g, %g] outside parent %s [%g, %g]", sp.Name,
				sp.StartSeconds, sp.StartSeconds+sp.Seconds,
				p.Name, p.StartSeconds, p.StartSeconds+p.Seconds)
		}
	}
}

func names(spans []obs.SpanRecord) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	return out
}

// TestAccessLogAndRequestIDs checks the structured access log: one JSON
// line per request, client-supplied request IDs respected, and the slow
// marker driven by SlowThreshold.
func TestAccessLogAndRequestIDs(t *testing.T) {
	var log bytes.Buffer
	// A negative threshold disables slow marking; -1ns would mark all.
	s := New(Options{AccessLog: &log, SlowThreshold: 1}) // 1ns: everything is slow
	h := s.Handler()

	req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
		strings.NewReader(`{"config":{"internal":"raid5","ft":2}}`))
	req.Header.Set("X-Request-ID", "client-chosen-7")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Request-ID"); got != "client-chosen-7" {
		t.Errorf("X-Request-ID = %q, want the client's", got)
	}

	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d, want 2:\n%s", len(lines), log.String())
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access line not JSON: %v", err)
	}
	if rec.ID != "client-chosen-7" || rec.Endpoint != "analyze" || rec.Status != http.StatusOK ||
		rec.Method != http.MethodPost || rec.Bytes <= 0 || !rec.Slow {
		t.Errorf("bad access record %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("second access line not JSON: %v", err)
	}
	if rec.Endpoint != "healthz" || rec.ID == "" {
		t.Errorf("bad healthz access record %+v", rec)
	}
	if c := s.Registry().Counter("serve.slow_requests").Value(); c < 1 {
		t.Errorf("serve.slow_requests = %d, want >= 1", c)
	}
	if c := s.Registry().Counter("serve.responses.analyze.2xx").Value(); c != 1 {
		t.Errorf("serve.responses.analyze.2xx = %d, want 1", c)
	}
}
