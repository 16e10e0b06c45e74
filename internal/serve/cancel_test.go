package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// slowSweepBody builds a sweep that takes seconds on this machine: wide
// redundancy sets (r=48) at ft=7 make each exact-chain cell ~100µs (the
// 255-state chain rides the sparse topology-reuse path), and tens of
// thousands of drive-MTTF values stack those into a multi-second grid
// with per-cell cancellation granularity.
func slowSweepBody(n int) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d", 200_000+i)
	}
	return `{"params":{"redundancy_set_size":48},
		"configs":[{"internal":"none","ft":7}],
		"method":"exact-chain",
		"parameter":"drive_mttf_hours",
		"values":[` + strings.Join(vals, ",") + `]}`
}

// TestSweepCancellationFreesSlotAndCache is the acceptance-criteria
// cancellation test: a slow sweep whose client disconnects must stop
// promptly (worker slot freed, in-flight gauge back to zero) and must
// not poison the cache — the next request for the same key re-solves.
func TestSweepCancellationFreesSlotAndCache(t *testing.T) {
	s := New(Options{MaxGridCells: 65536})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	inflight := s.Registry().Gauge("serve.inflight")
	body := slowSweepBody(32768)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep", strings.NewReader(body))
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
			err = fmt.Errorf("sweep completed with status %d, expected client-side cancellation", resp.StatusCode)
		}
		errc <- err
	}()

	// Wait until the solve is actually running, then pull the plug.
	waitFor(t, 10*time.Second, func() bool { return inflight.Value() >= 1 })
	cancel()
	if err := <-errc; !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}

	// The solver must notice within a couple of cells, not after the
	// remaining ~4s of grid. Allow generous slack for a loaded machine
	// while still catching a run-to-completion regression.
	waitFor(t, 2*time.Second, func() bool { return inflight.Value() == 0 })
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v end to end; the sweep likely ran to completion", elapsed)
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after a cancelled solve, want 0", n)
	}

	// The server is healthy and the key is not poisoned: a short sweep
	// (same shape, tiny grid) solves fresh and succeeds.
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(slowSweepBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancellation sweep: status %d", resp.StatusCode)
	}
}

// TestShutdownCancelsOrphanedSolve verifies the drain contract: once the
// drain deadline passes, Shutdown cancels the base context and a solve
// orphaned mid-grid stops instead of burning CPU to completion.
func TestShutdownCancelsOrphanedSolve(t *testing.T) {
	// httptest's server doesn't route request contexts through
	// serve.Server's base context, so run the real Serve/Shutdown pair
	// on an ephemeral listener.
	s := New(Options{MaxGridCells: 1 << 17})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l) //nolint:errcheck // exits via Shutdown

	inflight := s.Registry().Gauge("serve.inflight")
	url := "http://" + l.Addr().String() + "/v1/sweep"
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(slowSweepBody(1<<17)))
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, 10*time.Second, func() bool { return inflight.Value() >= 1 })

	// Drain window far shorter than the sweep: Shutdown must time out,
	// cancel the base context, and the solve must wind down.
	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(sctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded (drain shorter than sweep)", err)
	}
	waitFor(t, 2*time.Second, func() bool { return inflight.Value() == 0 })
	<-errc // client saw the 503 or a connection reset; either way it returned
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after shutdown-cancelled solve, want 0", n)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not met within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
