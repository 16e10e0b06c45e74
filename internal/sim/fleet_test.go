package sim

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestFleetMatchesChainLossRate validates the aggregation statistically:
// a lost node set is reborn fresh, so per-set losses form a renewal
// process with mean period = the single-set MTTDL. Over a horizon many
// periods long, the fleet's per-set MTTDL must approach the MTTA of the
// exact chain (fault tolerance 1, where DES and chain agree within ~10%).
func TestFleetMatchesChainLossRate(t *testing.T) {
	sc, in := acceleratedNIR(1)
	mtta, err := markov.MTTA(context.Background(), model.NIRChain(in, 1))
	if err != nil {
		t.Fatal(err)
	}
	const bricks, horizon = 4000, 20_000.0 // 500 sets of N=8; horizon ≈ 50 renewal periods
	est, err := EstimateFleet(t.Context(), sc, bricks, horizon, 17, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.NodeSets != bricks/sc.N || est.Bricks != bricks {
		t.Fatalf("geometry: %d bricks in %d sets, want %d in %d", est.Bricks, est.NodeSets, bricks, bricks/sc.N)
	}
	if est.Losses == 0 {
		t.Fatal("no losses observed")
	}
	// Renewal-process bias at this horizon plus the DES-vs-chain
	// concurrent-repair gap allow ~12%; the Poisson noise term covers the
	// rest.
	relTol := 0.12 + 3/math.Sqrt(float64(est.Losses))
	if math.Abs(est.MTTDLHours-mtta) > relTol*mtta {
		t.Errorf("fleet per-set MTTDL %v h vs chain MTTA %v h (losses=%d)", est.MTTDLHours, mtta, est.Losses)
	}
	// The aggregation must actually aggregate: far fewer live records
	// than node sets.
	if est.PeakLiveRecords >= est.NodeSets/2 {
		t.Errorf("peak live records %d of %d sets: aggregation not effective", est.PeakLiveRecords, est.NodeSets)
	}
	// Every split either merged back, lost data, or is still degraded at
	// the horizon — at most the peak record population.
	inFlight := est.Splits - est.Merges - est.Losses
	if inFlight < 0 || inFlight > int64(est.PeakLiveRecords) {
		t.Errorf("split/merge/loss accounting leak: %d splits, %d merges, %d losses, peak %d",
			est.Splits, est.Merges, est.Losses, est.PeakLiveRecords)
	}
	if math.Abs(est.MTTDLHours-float64(est.NodeSets)*horizon/float64(est.Losses)) > 1e-6 {
		t.Errorf("MTTDLHours inconsistent: %v", est.MTTDLHours)
	}
}

// TestFleetValidation exercises the precondition gate.
func TestFleetValidation(t *testing.T) {
	sc := parallelTestScenario()
	cases := []struct {
		name    string
		mutate  func(*Scenario, *int, *float64)
		wantSub string
	}{
		{"weibull nodes", func(s *Scenario, _ *int, _ *float64) { s.NodeFailureShape = 1.5 }, "memoryless"},
		{"weibull drives", func(s *Scenario, _ *int, _ *float64) { s.DriveFailureShape = 0.7 }, "memoryless"},
		{"zero bricks", func(_ *Scenario, b *int, _ *float64) { *b = 0 }, "brick"},
		{"zero horizon", func(_ *Scenario, _ *int, h *float64) { *h = 0 }, "horizon"},
		{"inf horizon", func(_ *Scenario, _ *int, h *float64) { *h = math.Inf(1) }, "horizon"},
		{"bad scenario", func(s *Scenario, _ *int, _ *float64) { s.N = 0 }, "geometry"},
	}
	for _, c := range cases {
		s, bricks, horizon := sc, 100, 1000.0
		c.mutate(&s, &bricks, &horizon)
		_, err := EstimateFleet(t.Context(), s, bricks, horizon, 1, 1, 0, nil)
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.wantSub)
		}
	}
	// Shape 1 (explicit exponential) is fine.
	s := sc
	s.NodeFailureShape, s.DriveFailureShape = 1, 1
	if _, err := EstimateFleet(t.Context(), s, 100, 100, 1, 1, 0, nil); err != nil {
		t.Errorf("exponential shape 1 rejected: %v", err)
	}
}

// TestFleetEventBudget pins the runaway guard: a tiny per-shard budget
// fails deterministically, naming the shard, at any worker count.
func TestFleetEventBudget(t *testing.T) {
	sc := parallelTestScenario()
	want := ""
	for _, workers := range []int{1, 4} {
		_, err := EstimateFleet(context.Background(), sc, 3*fleetShardSets*8, 10_000, 3, workers, 50, nil)
		if err == nil || !strings.Contains(err.Error(), "shard") {
			t.Fatalf("workers=%d: want shard budget error, got %v", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q differs from workers=1 %q", workers, err.Error(), want)
		}
	}
}

// TestFleetCancellation is the mid-run cancellation leg of the
// determinism stress test: cancelling while shards are in flight must
// return ctx.Err() and drain the inflight gauge to 0.
func TestFleetCancellation(t *testing.T) {
	sc := parallelTestScenario()
	reg := obs.NewRegistry()
	m := NewFleetMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Many shards so cancellation lands long before the claim loop ends;
	// a short horizon keeps the post-cancel drain (in-flight shards run to
	// completion) cheap under -race.
	bricks := 64 * fleetShardSets * 8
	done := make(chan error, 1)
	go func() {
		_, err := EstimateFleet(ctx, sc, bricks, 2000, 21, 4, 0, m)
		done <- err
	}()
	// Cancel as soon as the first shard is actually in flight.
	for m.InflightShards.Value() == 0 && m.Shards.Value() == 0 {
		runtime.Gosched()
	}
	cancel()
	err := <-done
	if err == nil || err != ctx.Err() && !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled estimate returned %v", err)
	}
	if g := m.InflightShards.Value(); g != 0 {
		t.Errorf("inflight shards gauge %v after cancellation, want 0", g)
	}
	// A pre-cancelled context returns immediately.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	if _, err := EstimateFleet(pre, sc, 100, 100, 1, 2, 0, nil); err == nil {
		t.Error("pre-cancelled context accepted")
	}
}

// TestFleetMetrics checks the counters add up to the estimate.
func TestFleetMetrics(t *testing.T) {
	sc := parallelTestScenario()
	reg := obs.NewRegistry()
	m := NewFleetMetrics(reg)
	const bricks, horizon = 2 * fleetShardSets * 8, 2000.0
	est, err := EstimateFleet(context.Background(), sc, bricks, horizon, 13, 0, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Bricks.Value(); got != int64(bricks) {
		t.Errorf("bricks counter %d, want %d", got, bricks)
	}
	if got := m.Events.Value(); got != est.Events {
		t.Errorf("events counter %d, want %d", got, est.Events)
	}
	if got := m.Losses.Value(); got != est.Losses {
		t.Errorf("losses counter %d, want %d", got, est.Losses)
	}
	if got := m.Splits.Value(); got != est.Splits {
		t.Errorf("splits counter %d, want %d", got, est.Splits)
	}
	if got := m.Shards.Value(); got != 2 {
		t.Errorf("shards counter %d, want 2", got)
	}
	if g := m.InflightShards.Value(); g != 0 {
		t.Errorf("inflight gauge %v after completion, want 0", g)
	}
	if peak := m.PeakLiveRecords.Value(); peak <= 0 || int(peak) > est.PeakLiveRecords {
		t.Errorf("peak live records gauge %v vs estimate %d", peak, est.PeakLiveRecords)
	}
	// Cause breakdown sums to the total.
	var sum int64
	for c := LossNone; c < lossCauseCount; c++ {
		sum += est.CauseCount(c)
	}
	if sum != est.Losses {
		t.Errorf("cause breakdown sums to %d, want %d", sum, est.Losses)
	}
	if est.CauseCount(LossCause(99)) != 0 {
		t.Error("out-of-range cause lookup not zero")
	}
}

// rateWalk recomputes a split set's live event rate by walking every
// component — the reference for the incremental tallies behind rate.
func rateWalk(b *brickSet) float64 {
	sc := &b.sh.sc
	rate := sc.ShockRate
	for i := range b.nodes {
		n := &b.nodes[i]
		if !n.up {
			continue
		}
		rate += sc.LambdaN
		for j := range n.drives {
			if n.drives[j].up {
				rate += sc.LambdaD
			}
		}
	}
	return rate
}

// healthyWalk recomputes full health by walking every component — the
// reference for the incremental tallies behind healthy.
func healthyWalk(b *brickSet) bool {
	if len(b.outstanding) != 0 {
		return false
	}
	for i := range b.nodes {
		n := &b.nodes[i]
		if !n.up || n.restriping || n.degraded != 0 {
			return false
		}
		for j := range n.drives {
			if !n.drives[j].up {
				return false
			}
		}
	}
	return true
}

// TestFleetIncrementalTalliesMatchWalk pins the O(1) rate/health tallies
// against their walk-every-component references on every live record
// after every event, across NIR+shock and IR scenarios. Any drift in the
// incremental accounting (a missed decrement on some repair path) shows
// up here long before it would skew an estimate.
func TestFleetIncrementalTalliesMatchWalk(t *testing.T) {
	ir := parallelTestScenario()
	ir.ParityDrives = 1
	ir.D = 4
	ir.MuRestripe = 3
	shocked := parallelTestScenario()
	shocked.ShockRate = 1e-3
	shocked.ShockSize = 2
	for name, sc := range map[string]Scenario{"ir": ir, "nir+shock": shocked} {
		s := newFleetShard(sc, 200, 5000, rand.New(rand.NewSource(11)), newCalendarQueue())
		events := 0
		s.onEvent = func(event) {
			events++
			for i := range s.records {
				b := &s.records[i]
				if !b.inUse {
					continue
				}
				fast, walk := b.rate(), rateWalk(b)
				if math.Abs(fast-walk) > 1e-9*walk {
					t.Fatalf("%s: event %d record %d: incremental rate %v vs walk %v", name, events, i, fast, walk)
				}
				if gotH, wantH := b.healthy(), healthyWalk(b); gotH != wantH {
					t.Fatalf("%s: event %d record %d: incremental healthy %v vs walk %v (%+v)", name, events, i, gotH, wantH, *b)
				}
			}
		}
		if err := s.run(1 << 30); err != nil {
			t.Fatal(err)
		}
		if events == 0 || s.splits == 0 {
			t.Fatalf("%s: degenerate run: %d events, %d splits", name, events, s.splits)
		}
	}
}

// TestFleetShortHorizonNoLosses covers the zero-loss path: MTTDL +Inf,
// stderr 0.
func TestFleetShortHorizonNoLosses(t *testing.T) {
	sc := parallelTestScenario()
	sc.LambdaN, sc.LambdaD = 1e-9, 1e-9
	sc.CHER = 0
	est, err := EstimateFleet(t.Context(), sc, 1000, 10, 1, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if est.Losses != 0 || !math.IsInf(est.MTTDLHours, 1) || est.StdErr != 0 {
		t.Errorf("zero-loss estimate %+v", est)
	}
}

// TestFleetSingleBrickIRAndShock smoke-covers the IR restripe and shock
// paths inside the fleet dispatcher (the equivalence harness covers them
// cross-engine; this pins they actually fire).
func TestFleetSingleBrickIRAndShock(t *testing.T) {
	ir := parallelTestScenario()
	ir.ParityDrives = 1
	ir.D = 4
	ir.MuRestripe = 3
	ir.ShockRate = 2e-3
	ir.ShockSize = 2
	rng := rand.New(rand.NewSource(3))
	res, err := runFleetShard(ir, 300, 20_000, rng, newCalendarQueue(), 1<<30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.losses == 0 || res.events == 0 || res.splits == 0 {
		t.Errorf("IR+shock shard degenerate: %+v", res)
	}
}

// healthySet is a fully healthy record of sc's geometry, outside any
// shard run, for driving the pick functions directly.
func healthySet(sc Scenario) *brickSet {
	b := newBrickSet(&shard{sc: sc}, 0)
	return &b
}

// pickEdge is the k-th interval edge of a healthy set's post-shock
// draw, k in [0, N·(1+D)]: edge k opens component k in walk order
// (node i, then its D drives) and edge N·(1+D) closes the last one.
func pickEdge(sc *Scenario, k int) float64 {
	i, r := k/(1+sc.D), k%(1+sc.D)
	edge := float64(i) * (sc.LambdaN + float64(sc.D)*sc.LambdaD)
	if r > 0 {
		edge += sc.LambdaN + float64(r-1)*sc.LambdaD
	}
	return edge
}

// checkHealthyPick asserts that healthyPick, wherever it accepts u,
// picks what the walk picks, and reports whether it accepted.
func checkHealthyPick(t *testing.T, b *brickSet, rate, u float64) bool {
	t.Helper()
	sc := &b.sh.sc
	node, drive, ok := healthyPick(sc, rate, u)
	if !ok {
		return false
	}
	if wn, wd := b.walkPick(u); node != wn || drive != wd {
		t.Fatalf("N=%d D=%d λN=%g λD=%g shock=%g rate=%g u=%g (bits %#x): fast pick (%d, %d), walk (%d, %d)",
			sc.N, sc.D, sc.LambdaN, sc.LambdaD, sc.ShockRate, rate, u, math.Float64bits(u), node, drive, wn, wd)
	}
	return true
}

// TestHealthyPickMatchesWalk pins the O(1) first-failure pick of a
// healthy set to the sequential walk it replaces, over random
// geometries and rates spanning many decades, with and without shocks.
// Random draws, draws within ±40 ulps of every interval edge, draws
// just outside the guard band, and the largest possible draw must agree
// wherever the fast pick accepts; draws on an edge and the largest draw
// must be refused, so the walk fallback is exercised.
func TestHealthyPickMatchesWalk(t *testing.T) {
	t.Parallel()
	scenarios, draws := 100, 2000
	if testing.Short() {
		scenarios, draws = 30, 500
	}
	rng := rand.New(rand.NewSource(24))
	decade := func(lo, hi float64) float64 { return math.Pow(10, lo+(hi-lo)*rng.Float64()) }
	var random, randomFallbacks, nearEdge, edgeFallbacks int
	for s := 0; s < scenarios; s++ {
		sc := Scenario{N: 3 + rng.Intn(253), D: 1 + rng.Intn(24), LambdaN: decade(-12, 2)}
		sc.LambdaD = sc.LambdaN * decade(-4, 4)
		if s%2 == 1 {
			sc.ShockRate = sc.LambdaN * decade(-3, 5)
		}
		b := healthySet(sc)
		rate := b.rate()
		// post maps a pre-shock draw to sampleFailure's post-shock u;
		// ok is false when the draw is a shock.
		post := func(u float64) (float64, bool) {
			if sc.ShockRate > 0 {
				if u < sc.ShockRate {
					return 0, false
				}
				u -= sc.ShockRate
			}
			return u, true
		}
		top, _ := post(math.Nextafter(rate, 0))

		for i := 0; i < draws; i++ {
			u, ok := post(rng.Float64() * rate)
			if !ok {
				continue
			}
			random++
			if !checkHealthyPick(t, b, rate, u) {
				randomFallbacks++
			}
		}
		slack := float64(sc.N*(1+sc.D)+16) * 0x1p-52 * rate
		for k := 0; k <= sc.N*(1+sc.D); k++ {
			edge := pickEdge(&sc, k)
			for off := -40; off <= 40; off++ {
				u := math.Float64frombits(uint64(int64(math.Float64bits(edge)) + int64(off)))
				if edge == 0 && off < 0 || u > top {
					continue
				}
				if checkHealthyPick(t, b, rate, u) {
					if off >= -1 && off <= 1 {
						t.Fatalf("N=%d D=%d: draw %d ulps from edge %d (%g) accepted; it must fall back", sc.N, sc.D, off, k, edge)
					}
				} else {
					edgeFallbacks++
				}
			}
			for _, m := range []float64{-3, -1.25, 1.25, 3} {
				if u := edge + m*slack; u >= 0 && u <= top && checkHealthyPick(t, b, rate, u) {
					nearEdge++
				}
			}
		}
		if checkHealthyPick(t, b, rate, top) {
			t.Fatalf("N=%d D=%d: the largest draw %g was accepted; it must fall back", sc.N, sc.D, top)
		}
	}
	if nearEdge == 0 || edgeFallbacks == 0 {
		t.Fatalf("degenerate edge coverage: %d accepted draws just outside the guard band, %d edge fallbacks", nearEdge, edgeFallbacks)
	}
	t.Logf("%d scenarios: %d/%d random draws fell back; %d edge draws fell back, %d accepted just outside the guard band",
		scenarios, randomFallbacks, random, edgeFallbacks, nearEdge)
}
