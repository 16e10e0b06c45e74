package serve

import (
	"fmt"
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

// overflowPlanBody is a 36 KB plan request whose candidate count, 2048
// internals × 256 fault tolerances × four 2048-value dimensions, is
// 2⁶³: an unchecked product wraps to −2⁶³ and passes any limit.
func overflowPlanBody() string {
	dim := func(n int, format string, at func(int) any) string {
		vs := make([]string, n)
		for i := range vs {
			vs[i] = fmt.Sprintf(format, at(i))
		}
		return "[" + strings.Join(vs, ",") + "]"
	}
	return `{"space":{"internals":` + dim(2048, "%q", func(int) any { return "none" }) +
		`,"fault_tolerances":` + dim(256, "%d", func(i int) any { return 1 + i%10 }) +
		`,"redundancy_set_sizes":` + dim(2048, "%d", func(i int) any { return 2 + i }) +
		`,"spare_nodes":` + dim(2048, "%d", func(i int) any { return i }) +
		`,"utilizations":` + dim(2048, "%g", func(i int) any { return float64(i+1) / 2048 }) +
		`,"rebuild_bytes":` + dim(2048, "%d", func(i int) any { return 512 * (i + 1) }) + `}}`
}

// FuzzPlanDecode runs arbitrary bytes through the strict decoder and the
// plan request's resolution, the path handlePlan runs before searching.
// Every space that resolves holds between one candidate and the limit,
// so the search's enumeration slab is always a valid allocation.
func FuzzPlanDecode(f *testing.F) {
	const maxCandidates = 20_000
	f.Add(overflowPlanBody())
	f.Add(`{"space":{"internals":["raid5","raid6"],"fault_tolerances":[1,2],"redundancy_set_sizes":[8],"spare_nodes":[0,8],"utilizations":[0.6,0.9],"rebuild_bytes":[262144]}}`)
	f.Add(`{"space":{"fault_tolerances":[1,1],"redundancy_set_sizes":[8]}}`)
	f.Add(`{"space":{"internals":["none"],"fault_tolerances":[7],"redundancy_set_sizes":[48],"spare_nodes":[0],"utilizations":[0.5,0.99],"rebuild_bytes":[262144]},"top":3}`)
	f.Add(`{"target_events_per_pb_year":0.5,"max_cost_drives":1e4,"min_capacity_pb":0.1,"node_cost_drives":2}`)
	f.Add(`{"space":{"utilizations":[-0]}}`)
	f.Add(`{}`)

	f.Fuzz(func(t *testing.T, body string) {
		var req PlanRequest
		if err := decodeRequest(strings.NewReader(body), 1<<20, &req); err != nil {
			return
		}
		job, err := req.resolve(maxCandidates)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("rejection with empty message for %q", body)
			}
			return
		}
		if n := job.Space.Size(); n <= 0 || n > maxCandidates {
			t.Fatalf("resolved space of %d candidates, want 1..%d", n, maxCandidates)
		}
	})
}
