package plan

import (
	"math"
	"os"
	"os/exec"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
)

// countersChildEnv marks the child process TestSearchChunkCounters runs
// its measurement in.
const countersChildEnv = "NSR_CHUNK_COUNTERS_CHILD"

// chunkCounters reads the chunk schedule's noise-free counters off reg.
func chunkCounters(reg *obs.Registry) [4]int64 {
	return [4]int64{
		reg.Counter("markov.batch.chunks").Value(),
		reg.Counter("markov.batch.cells").Value(),
		reg.Counter("markov.sparse.symbolic_builds").Value(),
		reg.Counter("markov.sparse.symbolic_reuse").Value(),
	}
}

// The chunk schedule of the two batched workloads is pinned by counters
// that do not depend on the machine's speed or load: chunks, cells, and
// symbolic builds and reuses on the request's registry, at one worker.
// The workloads are the sweep-deep shape (5 configurations × 512 drive
// MTTFs at r = 48, three of them on the sparse route) and a stock
// search. The symbolic split depends on what the process's pooled
// solvers cached before, so the measurement runs in a fresh child
// process on one P with the collector off, where it is exact.
func TestSearchChunkCounters(t *testing.T) {
	if os.Getenv(countersChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSearchChunkCounters$", "-test.count=1")
		cmd.Env = append(os.Environ(), countersChildEnv+"=1", "GOMAXPROCS=1", "GOGC=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("counter child: %v\n%s", err, out)
		}
		return
	}

	deep := []core.Config{
		{Internal: core.InternalNone, NodeFaultTolerance: 5},
		{Internal: core.InternalNone, NodeFaultTolerance: 6},
		{Internal: core.InternalNone, NodeFaultTolerance: 7},
		{Internal: core.InternalRAID5, NodeFaultTolerance: 5},
		{Internal: core.InternalRAID6, NodeFaultTolerance: 5},
	}
	p := params.Baseline()
	p.RedundancySetSize = 48
	p.NodeMTTFHours = 150_000
	p.HardErrorRate = 1e-13
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = 2e4 * math.Pow(10, float64(i)/float64(len(xs)-1))
	}
	reg := obs.NewRegistry()
	ctx, root := requestCtx(obs.NewSpanFolder(reg))
	_, err := core.Sweep(ctx, p, deep, core.MethodExactChain, xs,
		func(p *params.Parameters, x float64) { p.DriveMTTFHours = x }, 1)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	// Two 256-value blocks × 5 configurations; each sparse chunk binds
	// one of three topologies, built once and reused in the second block.
	got, want := chunkCounters(reg), [4]int64{10, 2560, 3, 3}
	if raceEnabled {
		// The race detector drops pooled solvers at random, turning
		// reuses into builds; their sum still counts the sparse chunks.
		got[2], got[3], want[2], want[3] = got[2]+got[3], 0, want[2]+want[3], 0
	}
	if got != want {
		t.Errorf("sweep-deep counters (chunks, cells, symbolic builds, reuse) = %v, want %v", got, want)
	}

	reg = obs.NewRegistry()
	ctx, root = requestCtx(obs.NewSpanFolder(reg))
	res, err := SearchCtx(ctx, params.Baseline(), DefaultSpace(), Constraints{}, Options{Workers: 1})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := chunkCounters(reg), [4]int64{11, 1837, 0, 0}; got != want {
		t.Errorf("stock search counters (chunks, cells, symbolic builds, reuse) = %v, want %v", got, want)
	}
	if got, want := [2]int{res.Stats.Confirmed, res.Stats.TopologyGroups}, [2]int{1837, 5}; got != want {
		t.Errorf("stock search (confirmed, topology groups) = %v, want %v", got, want)
	}
}
