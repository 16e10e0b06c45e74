package sim

// The cross-engine differential harness: the calendar queue and the heap
// oracle (heap_test.go) must pop the exact same event total order, which
// makes every trajectory — every RNG draw, every estimate — bit-identical
// between them. This is the regression anchor for any future scheduler
// work: a new scheduler (or a "harmless" optimization to the calendar
// queue) that reorders so much as one pair of events fails here
// immediately, on a randomized scenario it was never tuned for.

import (
	"math/rand"
	"runtime"
	"testing"
)

// randomScenario draws a randomized accelerated scenario covering the
// simulator's whole feature surface: geometry, internal RAID parity,
// Weibull shapes, CHER, correlated shocks, both repair distributions.
// Rates are accelerated so most scenarios lose data within a few
// thousand events.
func randomScenario(rng *rand.Rand) Scenario {
	n := 2 + rng.Intn(9) // 2..10
	r := 2 + rng.Intn(n-1)
	t := 1 + rng.Intn(r-1)
	d := 1 + rng.Intn(6)
	parity := 0
	if d >= 2 && rng.Float64() < 0.4 {
		parity = 1 + rng.Intn(2)
		if parity >= d {
			parity = d - 1
		}
	}
	sc := Scenario{
		N: n, R: r, D: d, T: t, ParityDrives: parity,
		LambdaN:    1e-4 * (1 + 50*rng.Float64()),
		LambdaD:    1e-4 * (1 + 80*rng.Float64()),
		MuN:        0.5 + 5*rng.Float64(),
		MuD:        0.5 + 8*rng.Float64(),
		MuRestripe: 0.5 + 8*rng.Float64(),
		Repair:     RepairExponential,
	}
	if rng.Float64() < 0.5 {
		sc.Repair = RepairDeterministic
	}
	if rng.Float64() < 0.6 {
		sc.CHER = 0.05 * rng.Float64()
	}
	shapes := []float64{0, 1, 0.7, 1.5}
	sc.NodeFailureShape = shapes[rng.Intn(len(shapes))]
	sc.DriveFailureShape = shapes[rng.Intn(len(shapes))]
	if rng.Float64() < 0.3 {
		sc.ShockRate = 1e-3 * (1 + 20*rng.Float64())
		sc.ShockSize = 1 + rng.Intn(n)
	}
	return sc
}

// runTraced runs one trajectory on the given scheduler, capturing the
// full popped-event sequence.
func runTraced(sc Scenario, seed int64, maxEvents int, q scheduler) ([]event, LossResult, error) {
	var seq []event
	s := newMissionShard(sc, q, nil)
	s.onEvent = func(e event) { seq = append(seq, e) }
	res, err := s.runMission(rand.New(rand.NewSource(seed)), maxEvents)
	return seq, res, err
}

// TestCrossEngineEquivalence is the harness: ~200 randomized scenarios ×
// multiple seeds, heap vs calendar, asserting byte-identical event
// sequences and results. Scenarios too reliable to lose data within the
// event budget must fail identically on both engines.
func TestCrossEngineEquivalence(t *testing.T) {
	const (
		scenarios = 200
		seeds     = 3
		maxEvents = 20_000
	)
	gen := rand.New(rand.NewSource(20260808))
	for i := 0; i < scenarios; i++ {
		sc := randomScenario(gen)
		if err := sc.Validate(); err != nil {
			t.Fatalf("scenario %d invalid: %v (%+v)", i, err, sc)
		}
		for s := 0; s < seeds; s++ {
			seed := int64(1000*i + s)
			hSeq, hRes, hErr := runTraced(sc, seed, maxEvents, newHeapQueue())
			cSeq, cRes, cErr := runTraced(sc, seed, maxEvents, newCalendarQueue())
			if (hErr == nil) != (cErr == nil) {
				t.Fatalf("scenario %d seed %d: heap err %v vs calendar err %v (%+v)", i, s, hErr, cErr, sc)
			}
			if hRes != cRes {
				t.Fatalf("scenario %d seed %d: heap result %+v vs calendar %+v (%+v)", i, s, hRes, cRes, sc)
			}
			if len(hSeq) != len(cSeq) {
				t.Fatalf("scenario %d seed %d: event counts %d vs %d (%+v)", i, s, len(hSeq), len(cSeq), sc)
			}
			for k := range hSeq {
				if hSeq[k] != cSeq[k] {
					t.Fatalf("scenario %d seed %d: event %d differs: heap %+v vs calendar %+v (%+v)",
						i, s, k, hSeq[k], cSeq[k], sc)
				}
			}
		}
	}
}

// TestRunUntilLossEngineMatchesDefault pins that RunUntilLoss — the
// calendar queue — produces the identical trajectory to the same mission
// on the injected heap oracle.
func TestRunUntilLossEngineMatchesDefault(t *testing.T) {
	sc := parallelTestScenario()
	def, err := RunUntilLoss(sc, rand.New(rand.NewSource(9)), 1_000_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, heap, err := runTraced(sc, 9, 1_000_000, newHeapQueue())
	if err != nil {
		t.Fatal(err)
	}
	if def != heap {
		t.Errorf("RunUntilLoss %+v, heap oracle %+v", def, heap)
	}
}

// fleetEquivalenceScenarios are exponential-only scenarios (the fleet
// precondition) spanning NIR, IR, CHER and shocks.
func fleetEquivalenceScenarios() []Scenario {
	base := parallelTestScenario()
	ir := base
	ir.ParityDrives = 1
	ir.D = 4
	ir.MuRestripe = 4
	shocked := base
	shocked.ShockRate = 5e-4
	shocked.ShockSize = 2
	det := base
	det.Repair = RepairDeterministic
	det.CHER = 0
	return []Scenario{base, ir, shocked, det}
}

// TestFleetCrossEngineEquivalence extends the harness to the fleet
// estimator: the heap oracle and the calendar queue must produce equal
// FleetEstimates (every field, ==) across scenario shapes and seeds.
func TestFleetCrossEngineEquivalence(t *testing.T) {
	const bricks, horizon = 2000, 2000.0
	for i, sc := range fleetEquivalenceScenarios() {
		for seed := int64(1); seed <= 2; seed++ {
			h, err := estimateFleet(t.Context(), sc, bricks, horizon, seed, 0, 0, nil, newHeapQueue)
			if err != nil {
				t.Fatalf("scenario %d seed %d heap: %v", i, seed, err)
			}
			c, err := EstimateFleet(t.Context(), sc, bricks, horizon, seed, 0, 0, nil)
			if err != nil {
				t.Fatalf("scenario %d seed %d calendar: %v", i, seed, err)
			}
			if h != c {
				t.Errorf("scenario %d seed %d: heap %+v vs calendar %+v", i, seed, h, c)
			}
		}
	}
}

// TestFleetShardEventSequenceEquivalence drills the fleet harness down to
// the event level on one shard: identical popped sequences, not just
// identical aggregates.
func TestFleetShardEventSequenceEquivalence(t *testing.T) {
	sc := parallelTestScenario()
	capture := func(q scheduler) []event {
		var seq []event
		rng := rand.New(rand.NewSource(77))
		if _, err := runFleetShard(sc, 500, 4000, rng, q, 0x7fffffff, func(e event) {
			seq = append(seq, e)
		}); err != nil {
			t.Fatal(err)
		}
		return seq
	}
	hSeq := capture(newHeapQueue())
	cSeq := capture(newCalendarQueue())
	if len(hSeq) != len(cSeq) {
		t.Fatalf("event counts %d vs %d", len(hSeq), len(cSeq))
	}
	for k := range hSeq {
		if hSeq[k] != cSeq[k] {
			t.Fatalf("event %d differs: heap %+v vs calendar %+v", k, hSeq[k], cSeq[k])
		}
	}
	if len(hSeq) == 0 {
		t.Fatal("shard produced no events")
	}
}

// TestFleetEstimateWorkerDeterminism is the determinism stress test: the
// fleet estimate must compare equal (==, every field) at workers
// 1/2/7/NumCPU/0 — run under -race in CI.
func TestFleetEstimateWorkerDeterminism(t *testing.T) {
	sc := parallelTestScenario()
	// > 2 shards so the worker pool actually contends.
	const bricks = 3 * fleetShardSets * 8 // 3 shards of N=8 sets
	const horizon = 2000.0
	want, err := EstimateFleet(t.Context(), sc, bricks, horizon, 42, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, runtime.NumCPU(), 0} {
		got, err := EstimateFleet(t.Context(), sc, bricks, horizon, 42, workers, 0, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: %+v != workers=1 result %+v", workers, got, want)
		}
	}
	other, err := EstimateFleet(t.Context(), sc, bricks, horizon, 43, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Error("different base seeds produced identical fleet estimates")
	}
}

// TestEventTieBreakOrder is the latent-inconsistency fix: equal-time
// events must pop in the documented (kind, brick, node, drive, seq)
// order on the calendar queue and the heap oracle alike — a contract, not
// a heap accident. The DES never creates time ties (continuous draws), but
// a scheduler that resolved them arbitrarily would make the two
// incomparable the day one appears.
func TestEventTieBreakOrder(t *testing.T) {
	// Every permutation axis at one shared timestamp, plus surrounding
	// times to prove ties don't leak across time boundaries.
	const tie = 100.0
	want := []event{
		{at: 50, kind: evShock},
		{at: tie, kind: evNodeFail, set: 0, node: 0, drive: 0, seq: 1},
		{at: tie, kind: evNodeFail, set: 0, node: 0, drive: 0, seq: 2},
		{at: tie, kind: evNodeFail, set: 0, node: 0, drive: 1, seq: 0},
		{at: tie, kind: evNodeFail, set: 0, node: 2, drive: 0, seq: 0},
		{at: tie, kind: evNodeFail, set: 3, node: 0, drive: 0, seq: 0},
		{at: tie, kind: evDriveFail, set: 0, node: 0, drive: 0, seq: 0},
		{at: tie, kind: evNodeRebuildDone, set: 0, node: 0, drive: 0, seq: 0},
		{at: tie, kind: evDriveRebuildDone, set: 0, node: 0, drive: 0, seq: 0},
		{at: tie, kind: evRestripeDone, set: 0, node: 0, drive: 0, seq: 0},
		{at: tie, kind: evShock},
		{at: tie, kind: evClassArrival, set: -1, seq: 9},
		{at: tie, kind: evSetArrival, set: 1, seq: 4},
		{at: tie + 1, kind: evNodeFail},
	}
	for _, engine := range []struct {
		name     string
		newQueue func() scheduler
	}{{"heap", newHeapQueue}, {"calendar", newCalendarScheduler}} {
		t.Run(engine.name, func(t *testing.T) {
			for trial := 0; trial < 50; trial++ {
				q := engine.newQueue()
				perm := rand.New(rand.NewSource(int64(trial))).Perm(len(want))
				for _, k := range perm {
					q.schedule(want[k])
				}
				for k, w := range want {
					got := q.next()
					if got != w {
						t.Fatalf("trial %d pop %d: got %+v, want %+v", trial, k, got, w)
					}
				}
				if q.Len() != 0 {
					t.Fatalf("trial %d: %d events left", trial, q.Len())
				}
			}
		})
	}
}
