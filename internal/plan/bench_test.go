package plan

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
)

// benchSpace is the headline design space: 10800 candidates at deep
// inter-node fault tolerance (4–6), where the exact NIR chains carry
// 31–127 transient states and per-cell confirmation is genuinely
// expensive. The rebuild sizes all sit below the drive's IOPS/transfer
// crossover, so adjacent sizes double the rebuild rate and the μ^k
// leverage makes most of the rebuild axis provably dominated — the
// regime the prune-then-confirm design is built for.
func benchSpace() Space {
	utils := make([]float64, 20)
	for i := range utils {
		utils[i] = 0.50 + 0.02*float64(i)
	}
	return Space{
		Internals:          []core.InternalRedundancy{core.InternalNone},
		FaultTolerances:    []int{4, 5, 6},
		RedundancySetSizes: []int{12, 16, 24, 32, 48, 64},
		SpareNodes:         []int{0, 8, 16, 24, 32, 48},
		Utilizations:       utils,
		RebuildBytes:       []float64{16 * params.KiB, 32 * params.KiB, 64 * params.KiB, 128 * params.KiB, 256 * params.KiB},
	}
}

// benchBase stresses the failure rates an order of magnitude beyond the
// paper's baseline. This keeps every deep-ft chain's MTTDL comfortably
// inside float64 (the most reliable corners of the space otherwise
// exhaust the exact solver's precision) and puts the space in a regime
// where design choices actually move the needle.
func benchBase() params.Parameters {
	p := params.Baseline()
	p.NodeMTTFHours = 40_000
	p.DriveMTTFHours = 60_000
	return p
}

// BenchmarkPlanSearch contrasts the production two-phase search
// (closed-form prune + topology-grouped batch confirmation) against the
// exhaustive baseline that confirms every feasible candidate's chain.
// Both produce the identical ranked frontier
// (TestSearchPruneMatchesExhaustive); only wall-clock differs. Single-core (workers=1) so the headline
// measures the algorithm, not the fan-out.
func BenchmarkPlanSearch(b *testing.B) {
	base := benchBase()
	space := benchSpace()
	if space.Size() < 10_000 {
		b.Fatalf("bench space has %d candidates, want >= 10000", space.Size())
	}
	run := func(b *testing.B, opt Options) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := SearchCtx(context.Background(), base, space, Constraints{}, opt)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Stats.Confirmed), "confirmed")
				b.ReportMetric(res.Stats.PruneRatio, "prune-ratio")
			}
		}
	}
	b.Run("candidates=10800/pruned+batched", func(b *testing.B) {
		run(b, Options{Workers: 1})
	})
	b.Run("candidates=10800/exhaustive", func(b *testing.B) {
		run(b, Options{DisablePrune: true, Workers: 1})
	})
}

// stockBases returns n parameter sets drawn like the plan-stock
// benchmark workload's requests: the paper's baseline with node and
// drive MTTF each scaled by a uniform factor in [0.5, 1.5].
func stockBases(n int) []params.Parameters {
	rng := rand.New(rand.NewSource(1))
	out := make([]params.Parameters, n)
	for i := range out {
		p := params.Baseline()
		p.NodeMTTFHours *= 1 + 0.5*(2*rng.Float64()-1)
		p.DriveMTTFHours *= 1 + 0.5*(2*rng.Float64()-1)
		out[i] = p
	}
	return out
}

// requestCtx is the context nsr-serve hands a plan request: the root
// span of a non-retaining tracer folding into the server's registry, so
// a benchmark pays the production telemetry.
func requestCtx(folder *obs.SpanFolder) (context.Context, *obs.Span) {
	tr := obs.NewTracer()
	tr.SetRetain(false)
	tr.SetFold(folder)
	return tr.Start(context.Background(), "serve.request")
}

// BenchmarkPlanSearchStock is the search a plan-stock request runs: the
// stock 10800-candidate space at jittered paper baselines, with the
// service's telemetry on, at one and two workers. Stock searches are
// dominated by enumeration, pruning and ranking, not by the exact
// solves.
func BenchmarkPlanSearchStock(b *testing.B) {
	folder := obs.NewSpanFolder(obs.NewRegistry())
	bases := stockBases(16)
	space := DefaultSpace()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx, root := requestCtx(folder)
				if _, err := SearchCtx(ctx, bases[i%len(bases)], space, Constraints{}, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
				root.End()
			}
		})
	}
}
