package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHandlerValidation(t *testing.T) {
	s := New(Options{MaxGridCells: 64, MaxSimTrials: 100, MaxBodyBytes: 4096})
	h := s.Handler()
	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantSubstr string
	}{
		{"bad json", "/v1/analyze", `{"config":`, http.StatusBadRequest, "invalid request body"},
		{"trailing garbage", "/v1/analyze", `{"config":{"internal":"raid5","ft":2}} extra`, http.StatusBadRequest, "trailing content"},
		{"unknown field", "/v1/analyze", `{"config":{"internal":"raid5","ft":2},"bogus":1}`, http.StatusBadRequest, "bogus"},
		{"unknown internal", "/v1/analyze", `{"config":{"internal":"raid7","ft":2}}`, http.StatusBadRequest, "raid7"},
		{"zero ft", "/v1/analyze", `{"config":{"internal":"raid5","ft":0}}`, http.StatusBadRequest, "fault tolerance"},
		{"unknown method", "/v1/analyze", `{"config":{"internal":"raid5","ft":2},"method":"magic"}`, http.StatusBadRequest, "magic"},
		{"unknown preset", "/v1/analyze", `{"preset":"cloud","config":{"internal":"raid5","ft":2}}`, http.StatusBadRequest, "preset"},
		{"bad params", "/v1/analyze", `{"params":{"node_mttf_hours":-1},"config":{"internal":"raid5","ft":2}}`, http.StatusBadRequest, "NodeMTTFHours"},
		{"incompatible geometry", "/v1/analyze", `{"params":{"redundancy_set_size":2},"config":{"internal":"none","ft":3}}`, http.StatusUnprocessableEntity, "too small"},
		{"oversized body", "/v1/analyze", `{"config":{"internal":"raid5","ft":2},"params":{` + strings.Repeat(" ", 5000) + `}}`, http.StatusBadRequest, "invalid request body"},
		{"sweep no configs", "/v1/sweep", `{"parameter":"drive_mttf_hours","values":[1e5]}`, http.StatusBadRequest, "at least one config"},
		{"sweep no values", "/v1/sweep", `{"parameter":"drive_mttf_hours","configs":[{"internal":"none","ft":2}]}`, http.StatusBadRequest, "at least one value"},
		{"sweep bad parameter", "/v1/sweep", `{"parameter":"warp_factor","values":[1],"configs":[{"internal":"none","ft":2}]}`, http.StatusBadRequest, "warp_factor"},
		{"oversized grid", "/v1/sweep", `{"parameter":"drive_mttf_hours","values":[` + manyValues(65) + `],"configs":[{"internal":"none","ft":2}]}`, http.StatusBadRequest, "exceeds the limit"},
		{"simulate too few trials", "/v1/simulate", `{"config":{"internal":"none","ft":2},"trials":1}`, http.StatusBadRequest, "at least 2"},
		{"simulate too many trials", "/v1/simulate", `{"config":{"internal":"none","ft":2},"trials":101}`, http.StatusBadRequest, "exceeds the limit"},
		{"simulate bad repair", "/v1/simulate", `{"config":{"internal":"none","ft":2},"trials":10,"repair":"gamma"}`, http.StatusBadRequest, "gamma"},
		{"simulate negative max events", "/v1/simulate", `{"config":{"internal":"none","ft":2},"trials":10,"max_events_per_trial":-5}`, http.StatusBadRequest, "must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, h, tc.path, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d; body %s", w.Code, tc.wantStatus, w.Body.String())
			}
			var e errorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("error body is not JSON: %v (%s)", err, w.Body.String())
			}
			if e.Error == "" {
				t.Fatal("error message is empty")
			}
			if !strings.Contains(e.Error, tc.wantSubstr) {
				t.Errorf("error %q does not mention %q", e.Error, tc.wantSubstr)
			}
		})
	}
}

// Every endpoint that takes a fault tolerance refuses one above
// maxFaultTolerance with a 400 before any solve starts, and accepts the
// limit itself.
func TestFaultToleranceBounded(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	cases := []struct {
		name, path, body string
	}{
		{"analyze", "/v1/analyze", `{"config":{"internal":"none","ft":%d},"params":{"redundancy_set_size":16}}`},
		{"sweep", "/v1/sweep", `{"parameter":"drive_mttf_hours","values":[1e5],"configs":[{"internal":"raid5","ft":2},{"internal":"none","ft":%d}],"params":{"redundancy_set_size":16}}`},
		{"simulate", "/v1/simulate", `{"config":{"internal":"none","ft":%d},"trials":2,"params":{"redundancy_set_size":16}}`},
		{"simulate fleet", "/v1/simulate", `{"config":{"internal":"none","ft":%d},"fleet":{"bricks":10,"years":1},"params":{"redundancy_set_size":16}}`},
		{"plan", "/v1/plan", `{"space":{"internals":["none"],"fault_tolerances":[2,%d],"redundancy_set_sizes":[16],"spare_nodes":[0],"utilizations":[0.9],"rebuild_bytes":[262144]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, ft := range []int{maxFaultTolerance + 1, 40} {
				w := postJSON(t, h, tc.path, fmt.Sprintf(tc.body, ft))
				if w.Code != http.StatusBadRequest {
					t.Fatalf("ft %d: status %d, want 400; body %s", ft, w.Code, w.Body.String())
				}
				if want := fmt.Sprintf("fault tolerance %d exceeds the limit of %d", ft, maxFaultTolerance); !strings.Contains(w.Body.String(), want) {
					t.Errorf("ft %d: error %s does not say %q", ft, w.Body.String(), want)
				}
			}
		})
	}
	// The limit itself is accepted (a closed-form analyze answers at once).
	if w := postJSON(t, h, "/v1/analyze", fmt.Sprintf(cases[0].body, maxFaultTolerance)); w.Code != http.StatusOK {
		t.Errorf("ft %d analyze: status %d; body %s", maxFaultTolerance, w.Code, w.Body.String())
	}
}

func manyValues(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", 100000+i)
	}
	return strings.Join(vals, ",")
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	for path, method := range map[string]string{
		"/v1/analyze": http.MethodGet,
		"/v1/sweep":   http.MethodGet,
		"/healthz":    http.MethodPost,
		"/metrics":    http.MethodPost,
	} {
		req := httptest.NewRequest(method, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", method, path, w.Code)
		}
	}
}

func TestAnalyzeHappyPathAndCacheIdentity(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	body := `{"config":{"internal":"raid5","ft":2},"method":"exact-chain"}`
	first := postJSON(t, h, "/v1/analyze", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	var resp AnalyzeResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Configuration != "FT 2, Internal RAID 5" || resp.MTTDLHours <= 0 {
		t.Fatalf("implausible response %+v", resp)
	}
	if resp.MTTDLYears == 0 || resp.EventsPerPBYear <= 0 || resp.CapacityPB <= 0 {
		t.Fatalf("derived fields missing: %+v", resp)
	}

	// A repeat must be a byte-identical cache hit, and a differently
	// spelled identical request (explicit baseline values) must share
	// the entry.
	second := postJSON(t, h, "/v1/analyze", body)
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached response differs from fresh response")
	}
	spelled := `{"preset":"baseline","params":{"node_mttf_hours":400000},"config":{"internal":"raid5","ft":2},"method":"exact-chain"}`
	third := postJSON(t, h, "/v1/analyze", spelled)
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Error("canonicalization failed: equivalent spelling got a different body")
	}
	if solves := s.Registry().Counter("serve.solves").Value(); solves != 1 {
		t.Errorf("solves = %d, want 1 (canonical key should dedup all three)", solves)
	}
	if s.CacheLen() != 1 {
		t.Errorf("cache len %d, want 1", s.CacheLen())
	}
}

// TestConcurrentIdenticalRequestsSolveOnce is the acceptance-criteria
// hammer: many concurrent identical analyze requests (plus a handful of
// distinct ones) must produce byte-identical bodies per key with the
// solve counter incremented exactly once per distinct request —
// whatever the interleaving, because in-flight dedup and the result
// cache cover every schedule between them. Run with -race.
func TestConcurrentIdenticalRequestsSolveOnce(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const identical = 24
	const distinct = 4
	bodyFor := func(ft int) string {
		return fmt.Sprintf(`{"config":{"internal":"none","ft":%d},"method":"exact-chain"}`, ft)
	}
	var wg sync.WaitGroup
	results := make([][]byte, identical+distinct)
	errs := make([]error, identical+distinct)
	for g := 0; g < identical+distinct; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ft := 2
			if g >= identical {
				ft = 3 + (g-identical)%2 // two other distinct keys
			}
			resp, err := http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(bodyFor(ft)))
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[g] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			results[g], errs[g] = io.ReadAll(resp.Body)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", g, err)
		}
	}
	for g := 1; g < identical; g++ {
		if !bytes.Equal(results[g], results[0]) {
			t.Fatalf("identical request %d body differs:\n%s\nvs\n%s", g, results[g], results[0])
		}
	}
	// 3 distinct canonical keys (ft 2, 3, 4) → exactly 3 solves.
	if solves := s.Registry().Counter("serve.solves").Value(); solves != 3 {
		t.Errorf("solves = %d, want 3", solves)
	}
	if hits := s.Registry().Counter("serve.cache.hits").Value(); hits != identical+distinct-3 {
		t.Errorf("hits = %d, want %d", hits, identical+distinct-3)
	}
	if inflight := s.Registry().Gauge("serve.inflight").Value(); inflight != 0 {
		t.Errorf("inflight gauge %v after all requests finished, want 0", inflight)
	}
}

func TestSweepHappyPath(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	body := `{"parameter":"drive_mttf_hours","values":[200000,300000,400000],
		"configs":[{"internal":"none","ft":2},{"internal":"raid5","ft":2}]}`
	w := postJSON(t, h, "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(resp.Points))
	}
	for _, pt := range resp.Points {
		if len(pt.Results) != 2 {
			t.Fatalf("results per point = %d, want 2", len(pt.Results))
		}
		for _, res := range pt.Results {
			if res.MTTDLHours <= 0 || res.EventsPerPBYear <= 0 {
				t.Fatalf("implausible sweep cell %+v", res)
			}
		}
	}
	// Longer drive MTTF must not hurt reliability.
	if resp.Points[0].Results[0].MTTDLHours > resp.Points[2].Results[0].MTTDLHours {
		t.Error("MTTDL fell as drive MTTF improved")
	}
}

func TestSimulateHappyPathDeterministic(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	// Accelerated failure rates keep the DES fast: near-baseline rates
	// would simulate astronomically many events per mission.
	body := `{"params":{"node_mttf_hours":1000,"drive_mttf_hours":500,"node_set_size":8,
		"redundancy_set_size":4,"drives_per_node":3},
		"config":{"internal":"none","ft":2},"seed":7,"trials":50}`
	first := postJSON(t, h, "/v1/simulate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	var resp SimulateResponse
	if err := json.Unmarshal(first.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trials != 50 || resp.MeanHours <= 0 || resp.Seed != 7 {
		t.Fatalf("implausible simulate response %+v", resp)
	}
	second := postJSON(t, h, "/v1/simulate", body)
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached simulate response differs")
	}
	if solves := s.Registry().Counter("serve.solves").Value(); solves != 1 {
		t.Errorf("solves = %d, want 1", solves)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body.String())
	}

	postJSON(t, h, "/v1/analyze", `{"config":{"internal":"raid6","ft":1}}`)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if snap.Counters["serve.requests.analyze"] != 1 || snap.Counters["serve.solves"] != 1 {
		t.Errorf("metrics snapshot missing serve counters: %v", snap.Counters)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics?format=text", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "serve.solves") {
		t.Fatalf("text metrics: %d %q", w.Code, w.Body.String())
	}
	// Default exposition is Prometheus text: TYPE comments, sanitized
	// names, and the correct versioned content type.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("prometheus metrics: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("prometheus content type = %q", ct)
	}
	body := w.Body.String()
	if !strings.Contains(body, "# TYPE serve_solves counter") || !strings.Contains(body, "serve_solves 1") {
		t.Errorf("prometheus exposition missing serve_solves:\n%s", body)
	}
	// Accept negotiation: a JSON-preferring client gets the JSON snapshot.
	w = httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !json.Valid(w.Body.Bytes()) {
		t.Fatalf("Accept: application/json metrics not JSON: %d %q", w.Code, w.Body.String())
	}
}

// TestSparseCountersSurfaceInMetrics drives a sweep big enough to ride
// the sparse CTMC path (r=48 at ft=7 is a 255-state chain, past the
// crossover) and checks the markov.sparse.* instrumentation shows up in
// /metrics: every cell is a sparse solve, and after the first few cells
// the symbolic factorization is reused, not rebuilt.
func TestSparseCountersSurfaceInMetrics(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	postJSON(t, h, "/v1/sweep", slowSweepBody(64))

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	c := snap.Counters
	if c["markov.sparse.solves"] != 64 {
		t.Errorf("markov.sparse.solves = %d, want 64 (one per sweep cell)", c["markov.sparse.solves"])
	}
	// The batched engine binds the shared topology once per chunk, so
	// the symbolic cache sees one lookup per chunk, not one per cell.
	// Chunk count depends on the worker pool (the chunk shrinks to
	// spread cells across CPUs), so tie the lookup count to the chunk
	// counter rather than a constant. Earlier tests
	// in this binary may have warmed the pooled solvers' caches (their
	// builds landed in other registries), so assert the sum, not the
	// build/reuse split.
	chunks := c["markov.batch.chunks"]
	if chunks < 1 {
		t.Errorf("markov.batch.chunks = %d, want >= 1 (batching is the sweep default)", chunks)
	}
	if c["markov.batch.cells"] != 64 {
		t.Errorf("markov.batch.cells = %d, want 64 (every cell through the batch path)", c["markov.batch.cells"])
	}
	if got := c["markov.sparse.symbolic_builds"] + c["markov.sparse.symbolic_reuse"]; got != chunks {
		t.Errorf("symbolic_builds+symbolic_reuse = %d, want %d (one lookup per chunk)", got, chunks)
	}
	if c["markov.sparse.dense_fallbacks"] != 0 {
		t.Errorf("markov.sparse.dense_fallbacks = %d, want 0 on this well-conditioned grid", c["markov.sparse.dense_fallbacks"])
	}
}

// TestServersKeepSeparateMetrics: two servers in one process each see
// only their own solver telemetry. Analyze, sweep and plan requests to A
// move A's markov.*, rebuild.* and plan.* counters; B's stay at zero —
// the solver layers record on the registry of the request's span, not
// on a process-wide one.
func TestServersKeepSeparateMetrics(t *testing.T) {
	t.Parallel()
	a, b := New(Options{}), New(Options{})
	for _, req := range []struct{ path, body string }{
		{"/v1/analyze", `{"config":{"internal":"none","ft":4},"method":"exact-chain"}`},
		{"/v1/sweep", `{"parameter":"drive_mttf_hours","values":[200000,300000],"configs":[{"internal":"raid5","ft":2}],"method":"exact-chain"}`},
		{"/v1/plan", smallPlanBody},
	} {
		if w := postJSON(t, a.Handler(), req.path, req.body); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.path, w.Code, w.Body.String())
		}
	}
	solver := func(s *Server) map[string]int64 {
		out := map[string]int64{}
		for name, v := range s.Registry().Snapshot().Counters {
			if strings.HasPrefix(name, "markov.") || strings.HasPrefix(name, "rebuild.") || strings.HasPrefix(name, "plan.") {
				out[name] = v
			}
		}
		return out
	}
	ca := solver(a)
	for name, want := range map[string]int64{
		"markov.absorption.solves":   1 + 2 + ca["plan.candidates.confirmed"],
		"markov.batch.cells":         1 + 2 + ca["plan.candidates.confirmed"],
		"plan.searches":              1,
		"plan.candidates.enumerated": 16,
	} {
		if ca[name] != want {
			t.Errorf("server A: %s = %d, want %d", name, ca[name], want)
		}
	}
	if ca["rebuild.computes"] == 0 || ca["plan.candidates.confirmed"] == 0 {
		t.Errorf("server A: rebuild.computes = %d, plan.candidates.confirmed = %d, want both > 0",
			ca["rebuild.computes"], ca["plan.candidates.confirmed"])
	}
	for name, v := range solver(b) {
		if v != 0 {
			t.Errorf("server B: %s = %d, want 0 (it served no request)", name, v)
		}
	}
}
