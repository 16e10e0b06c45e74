package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/markov"
	"repro/internal/params"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("output differs from %s at byte %d:\n got  %.120s\n want %.120s",
			path, i, got[max(i-40, 0):], want[max(i-40, 0):])
	}
}

// goldenRateSets are the paper's baseline and two jittered variants
// (node MTTF, drive MTTF and hard-error rate scaled independently), so
// the frozen solves cover more than one rate shape per topology.
func goldenRateSets() []struct {
	name string
	p    params.Parameters
} {
	jitter := func(node, drive, her float64) params.Parameters {
		p := params.Baseline()
		p.NodeMTTFHours *= node
		p.DriveMTTFHours *= drive
		p.HardErrorRate *= her
		return p
	}
	return []struct {
		name string
		p    params.Parameters
	}{
		{"base", params.Baseline()},
		{"jitter_a", jitter(0.62, 1.37, 2.3)},
		{"jitter_b", jitter(1.41, 0.71, 0.4)},
	}
}

// goldenMutableChains are hand-built chains that are never frozen: a
// small repairable chain with a structural zero-rate edge, and a
// 60-state birth-death chain past the dense/sparse crossover.
func goldenMutableChains() []struct {
	name string
	c    *markov.Chain
} {
	small := markov.NewChain()
	small.SetInitial("up")
	small.SetAbsorbing("lost")
	small.AddRate("up", "degraded", 3e-4)
	small.AddRate("degraded", "up", 0.5)
	small.AddRate("degraded", "critical", 7e-4)
	small.AddEdge("critical", "up", 0)
	small.AddRate("critical", "degraded", 0.25)
	small.AddRate("critical", "lost", 1.3e-3)

	chain := markov.NewChain()
	name := func(i int) string { return fmt.Sprintf("s%02d", i) }
	chain.SetInitial(name(0))
	chain.SetAbsorbing("lost")
	const n = 60
	for i := 0; i < n; i++ {
		next := "lost"
		if i < n-1 {
			next = name(i + 1)
		}
		chain.AddRate(name(i), next, 1e-2*float64(1+i%3))
		if i > 0 {
			chain.AddRate(name(i), name(i-1), 5e-3+float64(i)*1e-4)
		}
	}
	return []struct {
		name string
		c    *markov.Chain
	}{{"mutable_small", small}, {"mutable_chain60", chain}}
}

// TestMTTAGolden freezes per-cell markov.MTTA as hex float bits — NIR
// and IR chains at k = 1..7 over three rate sets, plus hand-built
// mutable chains — on both solver routes: the default dense/sparse
// crossover, and sparse wherever the density guard allows
// (SetSparseMinStates(1)). A failed solve records its error string.
func TestMTTAGolden(t *testing.T) {
	var buf bytes.Buffer
	line := func(name string, v float64, err error) {
		if err != nil {
			fmt.Fprintf(&buf, "%s error: %v\n", name, err)
			return
		}
		fmt.Fprintf(&buf, "%s %s\n", name, strconv.FormatFloat(v, 'x', -1, 64))
	}
	for _, route := range []struct {
		name      string
		minStates int
	}{{"default", 0}, {"sparse", 1}} {
		prev := markov.SetSparseMinStates(route.minStates)
		for _, rs := range goldenRateSets() {
			for k := 1; k <= 7; k++ {
				for _, internal := range []InternalRedundancy{InternalNone, InternalRAID5} {
					cfg := Config{Internal: internal, NodeFaultTolerance: k}
					ch, err := Chain(rs.p, cfg)
					if err != nil {
						t.Fatalf("%v: %v", cfg, err)
					}
					v, err := markov.MTTA(context.Background(), ch)
					line(fmt.Sprintf("%s/%s/%s/k=%d", route.name, rs.name, internal, k), v, err)
				}
			}
		}
		for _, mc := range goldenMutableChains() {
			v, err := markov.MTTA(context.Background(), mc.c)
			if mc.c.Frozen() {
				t.Errorf("%s: MTTA froze the caller's chain", mc.name)
			}
			line(route.name+"/"+mc.name, v, err)
		}
		markov.SetSparseMinStates(prev)
	}
	checkGolden(t, "mtta.golden", buf.Bytes())
}

// TestExactSweepGolden freezes the JSON of an exact-chain Sweep over
// the sensitivity configurations, byte for byte.
func TestExactSweepGolden(t *testing.T) {
	xs := []float64{100_000, 175_000, 250_000, 300_000, 420_000, 600_000, 850_000, 1_000_000}
	pts, err := Sweep(context.Background(), params.Baseline(), SensitivityConfigs(), MethodExactChain, xs, func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }, 0)

	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sweep_exact.golden", got)
}
