package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// benchHoldPattern drives a scheduler through the DES steady state — pop
// the minimum, reschedule it a deterministic delta later — so the two
// engines are compared on identical work.
func benchHoldPattern(b *testing.B, q scheduler, held int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < held; i++ {
		q.schedule(event{at: rng.Float64() * 100, kind: evNodeFail, node: i, seq: uint64(i)})
	}
	deltas := [8]float64{3.1, 5.7, 2.3, 8.9, 1.3, 6.1, 4.7, 7.9}
	// Warm the bucket slabs before the measured loop.
	for i := 0; i < 4*held; i++ {
		e := q.next()
		e.at += deltas[e.node%len(deltas)]
		q.schedule(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := q.next()
		e.at += deltas[e.node%len(deltas)]
		q.schedule(e)
	}
}

// BenchmarkFleetSchedulerHeap / Calendar are the paired scheduler
// microbenchmark: same hold pattern, same population, so the ns/op ratio
// is the scheduler speedup in isolation. Both must report 0 allocs/op.
func BenchmarkFleetSchedulerHeap(b *testing.B) {
	for _, held := range []int{64, 1024, 16384} {
		b.Run(benchSizeName(held), func(b *testing.B) {
			benchHoldPattern(b, &eventQueue{}, held)
		})
	}
}

func BenchmarkFleetSchedulerCalendar(b *testing.B) {
	for _, held := range []int{64, 1024, 16384} {
		b.Run(benchSizeName(held), func(b *testing.B) {
			benchHoldPattern(b, newCalendarQueue(), held)
		})
	}
}

func benchSizeName(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dk", n/1024)
	}
	return fmt.Sprintf("%d", n)
}

// benchSchedulers pairs the production calendar queue with the heap
// oracle for the …/heap and …/calendar sub-benchmarks.
var benchSchedulers = []struct {
	name     string
	newQueue func() scheduler
}{{"heap", newHeapQueue}, {"calendar", newCalendarScheduler}}

// BenchmarkFleetEstimate runs the full fleet estimator at a CI-safe scale
// (one -benchtime 1x iteration in the smoke job): baseline parameters,
// 100k bricks over one year.
func BenchmarkFleetEstimate(b *testing.B) {
	sc := benchBaselineScenario(b)
	for _, eng := range benchSchedulers {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est, err := estimateFleet(b.Context(), sc, 100_000, 8766, 1, 0, 0, nil, eng.newQueue)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(est.Events), "events/op")
				}
			}
		})
	}
}

// BenchmarkMillionBrickDecade is the headline number for BENCH_fleet.json:
// 10^6 bricks (storage nodes) over a 10-year mission at baseline rates.
// The name deliberately avoids the CI smoke regex (like AbsorptionDense);
// run it explicitly when recording BENCH_fleet.json.
func BenchmarkMillionBrickDecade(b *testing.B) {
	sc := benchBaselineScenario(b)
	for _, eng := range benchSchedulers {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est, err := estimateFleet(b.Context(), sc, 1_000_000, 87_660, 1, 0, 0, nil, eng.newQueue)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(est.Events), "events/op")
					b.ReportMetric(float64(est.Losses), "losses/op")
				}
			}
		})
	}
}

func benchBaselineScenario(b *testing.B) Scenario {
	b.Helper()
	cfg := core.Config{Internal: core.InternalNone, NodeFaultTolerance: 1}
	sc, err := ScenarioFromConfig(params.Baseline(), cfg, RepairExponential)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}
