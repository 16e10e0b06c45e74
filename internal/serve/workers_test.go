package serve

import (
	"bytes"
	"net/http"
	"testing"
)

// Two servers in one process each own their worker count: the solve
// semaphore is sized from Options.Workers, nothing is shared through
// package state, and the count never shows in a response — an
// exact-chain sweep (batched engine, chunked across the pool) and a
// closed-form sweep (per-cell engine) come back byte-identical from a
// one-worker and a three-worker server.
func TestServersOwnTheirWorkerCount(t *testing.T) {
	t.Parallel()
	one := New(Options{Workers: 1})
	three := New(Options{Workers: 3})
	if got := cap(one.sem); got != 1 {
		t.Errorf("Workers 1: cap(sem) = %d, want 1", got)
	}
	if got := cap(three.sem); got != 3 {
		t.Errorf("Workers 3: cap(sem) = %d, want 3", got)
	}
	for _, method := range []string{"exact-chain", "closed-form"} {
		body := `{"configs":[{"internal":"none","ft":2},{"internal":"raid5","ft":2},{"internal":"none","ft":3}],
			"method":"` + method + `","parameter":"node_mttf_hours",
			"values":[50000,100000,200000,460000,700000,1000000]}`
		w1 := postJSON(t, one.Handler(), "/v1/sweep", body)
		w3 := postJSON(t, three.Handler(), "/v1/sweep", body)
		if w1.Code != http.StatusOK || w3.Code != http.StatusOK {
			t.Fatalf("%s sweep: status %d / %d: %s %s", method, w1.Code, w3.Code, w1.Body, w3.Body)
		}
		if !bytes.Equal(w1.Body.Bytes(), w3.Body.Bytes()) {
			t.Errorf("%s sweep body differs between Workers 1 and Workers 3", method)
		}
	}
}
