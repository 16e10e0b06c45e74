package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
)

// smallPlanBody is a 16-candidate space that solves in milliseconds.
const smallPlanBody = `{"space":{"internals":["raid5","raid6"],"fault_tolerances":[1,2],"redundancy_set_sizes":[8],"spare_nodes":[0,8],"utilizations":[0.6,0.9],"rebuild_bytes":[262144]}}`

// slowPlanBody builds a plan request that takes seconds: a
// single-topology ft=7 space whose 255-state chains cost ~100µs per
// batched cell, swept across nUtils utilization values in [0.50, 0.99]
// — a range where nothing is dominated (capacity rises and reliability
// falls together), so every candidate reaches exact confirmation with
// per-cell cancellation granularity. The stressed MTTFs keep the
// ultra-reliable ft=7 chains inside float64 (at the paper's baseline
// rates some cells exhaust the exact solver's precision).
func slowPlanBody(nUtils int) string {
	vals := make([]string, nUtils)
	for i := range vals {
		vals[i] = fmt.Sprintf("%.8f", 0.50+0.49*float64(i)/float64(nUtils-1))
	}
	return `{"params":{"node_mttf_hours":40000,"drive_mttf_hours":60000},
		"space":{"internals":["none"],"fault_tolerances":[7],"redundancy_set_sizes":[48],"spare_nodes":[0],"utilizations":[` +
		strings.Join(vals, ",") + `],"rebuild_bytes":[262144]}}`
}

func TestPlanHappyPathAndCache(t *testing.T) {
	s := New(Options{})
	h := s.Handler()

	first := postJSON(t, h, "/v1/plan", smallPlanBody)
	if first.Code != http.StatusOK {
		t.Fatalf("plan: status %d body %s", first.Code, first.Body.String())
	}
	var res plan.Result
	if err := json.Unmarshal(first.Body.Bytes(), &res); err != nil {
		t.Fatalf("plan response not a plan.Result: %v", err)
	}
	st := res.Stats
	if st.Enumerated != 16 {
		t.Errorf("enumerated %d, want 16", st.Enumerated)
	}
	if sum := st.Infeasible + st.PrunedTarget + st.PrunedDominated + st.Confirmed; sum != st.Enumerated {
		t.Errorf("stats partition %d+%d+%d+%d = %d, want %d",
			st.Infeasible, st.PrunedTarget, st.PrunedDominated, st.Confirmed, sum, st.Enumerated)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier on a space of paper-grade configurations")
	}
	for i, c := range res.Frontier {
		if !c.Confirmed || !(c.ExactEventsPerPBYear < res.TargetEventsPerPBYear) {
			t.Errorf("frontier[%d] not confirmed under target: %+v", i, c)
		}
	}

	// Byte-identical replay from cache, and a differently spelled
	// identical request (explicit preset and target) shares the entry.
	second := postJSON(t, h, "/v1/plan", smallPlanBody)
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached plan response differs from fresh response")
	}
	spelled := `{"preset":"baseline","target_events_per_pb_year":0.002,` + smallPlanBody[1:]
	third := postJSON(t, h, "/v1/plan", spelled)
	if third.Code != http.StatusOK {
		t.Fatalf("spelled plan: status %d body %s", third.Code, third.Body.String())
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Error("canonicalization failed: equivalent spelling got a different body")
	}
	if solves := s.Registry().Counter("serve.solves").Value(); solves != 1 {
		t.Errorf("solves = %d, want 1 (canonical key should dedup all three)", solves)
	}
	if s.CacheLen() != 1 {
		t.Errorf("cache len %d, want 1", s.CacheLen())
	}
	// The search is instrumented on the server registry.
	if n := s.Registry().Counter("plan.candidates.enumerated").Value(); n != 16 {
		t.Errorf("plan.candidates.enumerated = %d, want 16", n)
	}
}

func TestPlanValidation(t *testing.T) {
	s := New(Options{MaxPlanCandidates: 100})
	h := s.Handler()
	cases := []struct {
		name       string
		body       string
		wantSubstr string
	}{
		{"unknown field", `{"bogus":1}`, "bogus"},
		{"unknown internal", `{"space":{"internals":["raid7"],"fault_tolerances":[1]}}`, "raid7"},
		{"zero ft", `{"space":{"fault_tolerances":[0],"redundancy_set_sizes":[8]}}`, "fault tolerance"},
		{"utilization out of range", `{"space":{"utilizations":[1.5],"fault_tolerances":[1]}}`, "utilization"},
		{"negative target", `{"target_events_per_pb_year":-1,"space":{"internals":["raid5"],"fault_tolerances":[1],"redundancy_set_sizes":[8],"spare_nodes":[0],"utilizations":[0.9],"rebuild_bytes":[262144]}}`, "target"},
		{"negative top", `{"space":{"fault_tolerances":[1],"redundancy_set_sizes":[8],"spare_nodes":[0],"utilizations":[0.9],"rebuild_bytes":[262144]},"top":-2}`, "top"},
		{"space too large", `{}`, "exceeds the limit"},
		{"space overflows int", overflowPlanBody(), "cannot be enumerated"},
		{"duplicate value", `{"space":{"fault_tolerances":[1,2,1],"redundancy_set_sizes":[8]}}`, "fault tolerance 1 listed twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(t, h, "/v1/plan", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", w.Code, w.Body.String())
			}
			if !strings.Contains(w.Body.String(), tc.wantSubstr) {
				t.Errorf("error %q missing %q", w.Body.String(), tc.wantSubstr)
			}
		})
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/plan", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", w.Code)
	}
}

// TestPlanConcurrentIdenticalSolveOnce is the single-flight half of the
// endpoint contract: concurrent identical plan requests solve the
// design space once and all receive the leader's exact bytes.
func TestPlanConcurrentIdenticalSolveOnce(t *testing.T) {
	s := New(Options{MaxPlanCandidates: 65536})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := slowPlanBody(2000)
	const clients = 8
	results := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[g] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs[g] = err
				return
			}
			results[g] = buf.Bytes()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
	for g := 1; g < clients; g++ {
		if !bytes.Equal(results[g], results[0]) {
			t.Fatalf("client %d body differs from client 0", g)
		}
	}
	if solves := s.Registry().Counter("serve.solves").Value(); solves != 1 {
		t.Errorf("solves = %d, want 1", solves)
	}
	if s.CacheLen() != 1 {
		t.Errorf("cache len %d, want 1", s.CacheLen())
	}
}

// TestPlanCancellationFreesSlotAndCache is the cancellation half of the
// contract: a dead client stops the search mid-space (in-flight gauge
// drains, worker slot freed), nothing is cached, and the key is not
// poisoned — a later request re-solves cleanly.
func TestPlanCancellationFreesSlotAndCache(t *testing.T) {
	s := New(Options{MaxPlanCandidates: 65536})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inflight := s.Registry().Gauge("serve.inflight")
	body := slowPlanBody(60000)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/plan", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	start := time.Now()
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("plan completed with status %d, expected client-side cancellation", resp.StatusCode)
		}
		errc <- err
	}()

	waitFor(t, 10*time.Second, func() bool { return inflight.Value() >= 1 })
	cancel()
	if err := <-errc; !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	// The search must stop within a few confirmation cells, not after
	// the remaining seconds of space.
	waitFor(t, 2*time.Second, func() bool { return inflight.Value() == 0 })
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v end to end; the search likely ran to completion", elapsed)
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after a cancelled search, want 0", n)
	}

	// Healthy afterwards: a small search solves fresh and succeeds.
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(smallPlanBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancellation plan: status %d", resp.StatusCode)
	}
}
