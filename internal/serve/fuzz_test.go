package serve

import (
	"strings"
	"testing"
)

// FuzzAnalyzeDecode round-trips arbitrary bytes through the strict
// request decoder and full validation, the same path handleAnalyze
// runs before touching the solver. The invariants: never panic, and
// every rejection carries a non-empty message (clients always learn
// why they were refused).
func FuzzAnalyzeDecode(f *testing.F) {
	f.Add(`{"config":{"internal":"raid5","ft":2}}`)
	f.Add(`{"preset":"enterprise","config":{"internal":"none","ft":3},"method":"exact-chain"}`)
	f.Add(`{"params":{"node_mttf_hours":400000,"redundancy_set_size":16},"config":{"internal":"raid6","ft":1}}`)
	f.Add(`{"config":{"internal":"raid7","ft":0}}`)
	f.Add(`{"config":`)
	f.Add(`null`)
	f.Add(`{}`)
	f.Add(`{"config":{"internal":"none","ft":2}} {"config":{"internal":"none","ft":2}}`)
	f.Add(`{"params":{"node_mttf_hours":-1e308},"config":{"internal":"none","ft":2}}`)
	f.Add(`{"params":{"node_set_size":-9223372036854775808},"config":{"internal":"none","ft":2}}`)
	f.Add(strings.Repeat("[", 1000))
	f.Add(`{"config":{"internal":"none","ft":40}}`)

	f.Fuzz(func(t *testing.T, body string) {
		var req AnalyzeRequest
		if err := decodeRequest(strings.NewReader(body), 1<<16, &req); err != nil {
			if err.Error() == "" {
				t.Fatalf("decode rejection with empty message for %q", body)
			}
			return
		}
		job, err := req.resolve()
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("validation rejection with empty message for %q", body)
			}
			return
		}
		if ft := job.Config.NodeFaultTolerance; ft > maxFaultTolerance {
			t.Fatalf("fault tolerance %d past the limit accepted for %q", ft, body)
		}
		// A request that survives validation must canonicalize without
		// panicking — the key is what the cache and solver trust.
		if key := canonicalKey("analyze", job); key == "" {
			t.Fatalf("empty canonical key for %q", body)
		}
	})
}
