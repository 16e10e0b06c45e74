package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/params"
)

var update = flag.Bool("update", false, "rewrite golden files")

// jittered returns the paper's baseline with node and drive MTTF scaled,
// the two knobs a plan request typically varies.
func jittered(node, drive float64) params.Parameters {
	p := params.Baseline()
	p.NodeMTTFHours *= node
	p.DriveMTTFHours *= drive
	return p
}

// The ranked Search output over the stock space — the JSON the service
// and nsr-plan -json emit — is frozen byte for byte: every search
// mechanism (enumeration, pruning, confirmation, ranking) may change how
// it runs, never what it returns. One golden per jittered base, and one
// per constraint kind.
func TestSearchGolden(t *testing.T) {
	base := params.Baseline()
	cases := []struct {
		name string
		base params.Parameters
		cons Constraints
	}{
		{"stock_jitter_a", jittered(0.62, 1.37), Constraints{}},
		{"stock_jitter_b", jittered(1.41, 0.71), Constraints{}},
		{"stock_jitter_c", jittered(0.93, 0.58), Constraints{}},
		{"stock_budget", base, Constraints{MaxCostDrives: float64(base.NodeSetSize+8) * float64(base.DrivesPerNode)}},
		{"stock_floor_nodecost", base, Constraints{MinCapacityPB: 0.2, NodeCostDrives: 2.5}},
		{"stock_target", base, Constraints{TargetEventsPerPBYear: 5e-5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := SearchCtx(context.Background(), tc.base, DefaultSpace(), tc.cons, Options{})
			if err != nil {
				t.Fatalf("Search: %v", err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			path := filepath.Join("testdata", "search_"+tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Errorf("Search output differs from %s at byte %d:\n got  %.120s\n want %.120s",
					path, i, got[max(i-40, 0):], want[max(i-40, 0):])
			}
		})
	}
}
