package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestCalendarQueueRandomOrdering pops randomly scheduled events and
// checks the sequence is exactly the event.less sort — across resizes,
// year wraps, and clustered times.
func TestCalendarQueueRandomOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := newCalendarQueue()
	var all []event
	for i := 0; i < 5000; i++ {
		e := event{
			at:   rng.Float64() * 1e5, // spans many years of the initial width
			kind: eventKind(1 + rng.Intn(int(numEventKinds)-1)),
			node: rng.Intn(8),
			seq:  uint64(i),
		}
		all = append(all, e)
		q.schedule(e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].less(all[j]) })
	for i, want := range all {
		if got := q.next(); got != want {
			t.Fatalf("pop %d: got %+v, want %+v", i, got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left", q.Len())
	}
}

// TestCalendarQueueHoldPattern drives the DES-like workload — pop one,
// schedule a bit later — through enough iterations to cross several
// width recalibrations, checking monotone nondecreasing pop times.
func TestCalendarQueueHoldPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := newCalendarQueue()
	for i := 0; i < 64; i++ {
		q.schedule(event{at: rng.Float64() * 10, seq: uint64(i), kind: evNodeFail})
	}
	last := -1.0
	seq := uint64(64)
	for i := 0; i < 50_000; i++ {
		e := q.next()
		if e.at < last {
			t.Fatalf("pop %d went backwards: %v after %v", i, e.at, last)
		}
		last = e.at
		// Occasionally vary the hold delta by orders of magnitude so the
		// recalibrated width is exercised in both directions.
		delta := rng.ExpFloat64()
		if i%1000 == 999 {
			delta *= 100
		}
		q.schedule(event{at: e.at + delta, seq: seq, kind: evNodeFail})
		seq++
	}
	if q.Len() != 64 {
		t.Fatalf("hold pattern leaked events: %d", q.Len())
	}
}

// TestCalendarQueueSparseJump exercises the direct-search fallback: one
// event many years past the scan window must still come out first, and
// the scan must re-park there, not walk year by year.
func TestCalendarQueueSparseJump(t *testing.T) {
	q := newCalendarQueue()
	q.schedule(event{at: 1e9, kind: evNodeFail, seq: 1})
	q.schedule(event{at: 2e9, kind: evNodeFail, seq: 2})
	if e := q.next(); e.at != 1e9 {
		t.Fatalf("got %v", e)
	}
	if e := q.next(); e.at != 2e9 {
		t.Fatalf("got %v", e)
	}
	// Park the scan far in the future, then schedule in the past (the
	// fuzz-only backwards case): the pull-back must recover it.
	q.schedule(event{at: 5.0, kind: evNodeFail, seq: 3})
	if e := q.next(); e.at != 5.0 {
		t.Fatalf("pull-back failed: got %+v", e)
	}
	if q.Len() != 0 {
		t.Fatalf("%d left", q.Len())
	}
}

// TestCalendarQueueEmptyPanics matches heap.Pop's contract.
func TestCalendarQueueEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("next on empty queue did not panic")
		}
	}()
	newCalendarQueue().next()
}

// TestCalendarQueueSteadyStateZeroAlloc is the hot-path pin: once bucket
// slabs are warm, the pop-one/schedule-one cycle performs no allocations.
// This is what lets a fleet shard process tens of millions of events
// without GC pressure.
func TestCalendarQueueSteadyStateZeroAlloc(t *testing.T) {
	q := newCalendarQueue()
	const held = 24 // within (buckets/2, 2*buckets] for 16 buckets: no resizes
	for i := 0; i < held; i++ {
		q.schedule(event{at: float64(i) * 0.37, kind: evNodeFail, node: i})
	}
	// Warm: cycle long enough for the bucket slabs to reach their
	// steady-state capacities under the deterministic delta pattern.
	deltas := [4]float64{3.1, 5.7, 2.3, 8.9}
	cycle := func() {
		e := q.next()
		e.at += deltas[e.node%len(deltas)]
		q.schedule(e)
	}
	for i := 0; i < 20_000; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Errorf("steady-state schedule/pop allocates %v allocs/op, want 0", avg)
	}
}

// TestFleetSetRecordRecyclingZeroAlloc pins the record freelist: after
// warmup, a split node set's acquire/release cycle reuses its slab record,
// node and drive slices, and outstanding list without allocating.
func TestFleetSetRecordRecyclingZeroAlloc(t *testing.T) {
	sc := parallelTestScenario()
	rng := rand.New(rand.NewSource(8))
	s := newFleetShard(sc, 1000, 1e9, rng, newCalendarQueue())
	cycle := func() {
		// Mirror split's bookkeeping so healthy (hence the class arrival
		// rate and the queue population) stays constant: one acquire, one
		// reabsorb, one pop to balance the rescheduled class arrival.
		s.healthy--
		idx := s.acquireSet()
		s.reabsorb(&s.records[idx])
		s.q.next()
	}
	for i := 0; i < 5000; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("set record recycling allocates %v allocs/op, want 0", avg)
	}
}
