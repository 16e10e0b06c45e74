package sim

import "math"

// calendarQueue is a Brown-style calendar queue: pending events hash into
// day buckets of a fixed width, the array of buckets covers one "year",
// and far-future events simply wait in their bucket until the scan wraps
// around to their year. For the DES workloads here — arrival rates that
// change slowly, a large population of pending (mostly lazily-cancelled)
// events — schedule and next are O(1) amortized, against the heap's
// O(log n), and the steady-state hot path performs no allocations: buckets
// are slabs that recycle their capacity as events flow through, and
// resizes (which do allocate) only happen when the population crosses a
// power-of-two threshold.
//
// Ordering contract: next() returns the exact minimum under event.less,
// identically to the heap oracle. The scan position is an integer day
// counter, never an accumulated float bound: an event is due exactly when
// dayOf(e.at) <= day, the same floor that placed it in its bucket, so
// placement and due-check can never disagree (an earlier float-threshold
// design drifted by an ulp per year and popped boundary events a year
// late). dayOf is monotone in time, so scanning days in order visits
// nondecreasing times; equal times share a day — hence a bucket — where
// the sorted insert applies the explicit (kind, brick, node, drive, seq)
// tie-break. The cross-engine harness and FuzzEventSchedule hold this
// equivalence to the heap oracle down to the byte.
type calendarQueue struct {
	buckets [][]event
	width   float64 // one bucket's span of simulated time
	count   int

	// day is the absolute day index the scan is parked on; the scan's
	// bucket is day mod len(buckets).
	day int64

	// lastPop and popGapSum/popGaps estimate the inter-event spacing that
	// calibrates the bucket width at the next resize.
	lastPop   float64
	popGapSum float64
	popGaps   int
}

const (
	calMinBuckets    = 16
	calInitialWidth  = 1.0
	calGapSafety     = 2.0 // width = safety × mean pop gap
	calMinGapSamples = 16
	calRecalWindow   = 1024 // pop-gap samples per drift check
	calDriftFactor   = 4.0  // recalibrate when width is this far off ideal
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([][]event, calMinBuckets),
		width:   calInitialWidth,
	}
}

func (q *calendarQueue) Len() int { return q.count }

// reset empties the queue for reuse, keeping the bucket slabs and the
// calibrated width. Pop order never depends on the width, so a reused
// queue pops exactly the sequence a fresh one would, without regrowing
// its slabs.
func (q *calendarQueue) reset() {
	for b := range q.buckets {
		q.buckets[b] = q.buckets[b][:0]
	}
	q.count = 0
	q.day = 0
	q.lastPop = 0
	q.popGapSum, q.popGaps = 0, 0
}

// dayOf maps a timestamp to its absolute day index.
func (q *calendarQueue) dayOf(at float64) int64 {
	return int64(math.Floor(at / q.width))
}

// bucketOf maps a day to its bucket (negative days only arise under
// fuzzing; the DES never schedules before t=0).
func (q *calendarQueue) bucketOf(day int64) int {
	b := int(day % int64(len(q.buckets)))
	if b < 0 {
		b += len(q.buckets)
	}
	return b
}

// insert places e in sorted position within day d's bucket.
func (q *calendarQueue) insert(e event, d int64) {
	b := q.bucketOf(d)
	// Insertion sort from the tail: new events are usually the latest in
	// their bucket, so the common case is a plain append.
	bucket := append(q.buckets[b], e)
	for i := len(bucket) - 1; i > 0 && bucket[i].less(bucket[i-1]); i-- {
		bucket[i], bucket[i-1] = bucket[i-1], bucket[i]
	}
	q.buckets[b] = bucket
	q.count++
}

// schedule inserts e into its day's bucket.
func (q *calendarQueue) schedule(e event) {
	d := q.dayOf(e.at)
	q.insert(e, d)
	// An event before the scan's parked day (possible only when time runs
	// backwards — the fuzz harness does this; the DES never schedules
	// before now) must pull the scan back or it would wait a whole year.
	if d < q.day {
		q.day = d
	}
	if q.count > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// next removes and returns the minimum event. It panics on an empty queue,
// matching heap.Pop.
func (q *calendarQueue) next() event {
	if q.count == 0 {
		panic("sim: next on empty calendarQueue")
	}
	// Scan at most one full year from the parked day.
	for scanned := 0; scanned < len(q.buckets); scanned++ {
		b := q.bucketOf(q.day)
		bucket := q.buckets[b]
		if len(bucket) > 0 && q.dayOf(bucket[0].at) <= q.day {
			return q.popHead(b)
		}
		q.day++
	}
	// Nothing due this year: jump straight to the bucket holding the
	// earliest event (direct search, rare) and re-park the scan there.
	minB := -1
	var minE event
	for b, bucket := range q.buckets {
		if len(bucket) == 0 {
			continue
		}
		if minB < 0 || bucket[0].less(minE) {
			minB, minE = b, bucket[0]
		}
	}
	q.day = q.dayOf(minE.at)
	return q.popHead(minB)
}

// popHead removes the head of bucket b, keeping the slab's capacity.
func (q *calendarQueue) popHead(b int) event {
	bucket := q.buckets[b]
	e := bucket[0]
	copy(bucket, bucket[1:])
	q.buckets[b] = bucket[:len(bucket)-1]
	q.count--
	if gap := e.at - q.lastPop; gap >= 0 {
		q.popGapSum += gap
		q.popGaps++
	}
	q.lastPop = e.at
	if q.count < len(q.buckets)/2 && len(q.buckets) > calMinBuckets {
		q.resize(len(q.buckets) / 2)
	} else if q.popGaps >= calRecalWindow {
		// Drift check: a steady population never crosses a resize threshold,
		// so a width calibrated before the workload settled (or after its
		// event spacing shifted) would persist forever, degenerating buckets
		// into long insertion-sorted runs. When the recent mean gap says the
		// width is off by more than calDriftFactor either way, resize in
		// place to recalibrate; otherwise just start a fresh sample window.
		ideal := calGapSafety * q.popGapSum / float64(q.popGaps)
		if ideal > 0 && (q.width > calDriftFactor*ideal || q.width < ideal/calDriftFactor) {
			q.resize(len(q.buckets))
		} else {
			q.popGapSum, q.popGaps = 0, 0
		}
	}
	return e
}

// resize rebuilds the bucket array at the new size, recalibrating the
// width to the observed mean pop gap so a day holds O(1) due events.
// Resize frequency is O(log population): the only allocating path.
func (q *calendarQueue) resize(n int) {
	if q.popGaps >= calMinGapSamples {
		if w := calGapSafety * q.popGapSum / float64(q.popGaps); w > 0 && !math.IsInf(w, 1) {
			q.width = w
		}
		q.popGapSum, q.popGaps = 0, 0
	}
	old := q.buckets
	q.buckets = make([][]event, n)
	q.count = 0
	// Re-park the scan on the earliest pending event's day (the width may
	// have changed, remapping every day index).
	minDay := int64(math.MaxInt64)
	for _, bucket := range old {
		for _, e := range bucket {
			d := q.dayOf(e.at)
			minDay = min(minDay, d)
			q.insert(e, d)
		}
	}
	if q.count > 0 {
		q.day = minDay
	} else {
		q.day = q.dayOf(q.lastPop)
	}
}
