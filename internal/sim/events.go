// Package sim validates the analytic models by stochastic simulation,
// three ways:
//
//   - a per-mission discrete-event simulator of the full system (nodes,
//     drives, concurrent rebuilds, restripes, uncorrectable errors,
//     fail-in-place with spare replenishment) whose dynamics are *not*
//     the Markov chain's — repairs proceed concurrently rather than
//     last-in-first-out — so agreement with the chain quantifies the
//     paper's modelling simplifications;
//   - a regenerative rare-event estimator with balanced failure biasing
//     over any absorbing markov.Chain, for MTTDL regimes far beyond what
//     naive simulation can reach;
//   - a fleet-scale estimator that simulates millions of bricks (storage
//     nodes, grouped into node sets of N) over a mission horizon by
//     aggregating identical fully-healthy node sets into one counted
//     record (see fleet.go).
//
// The two discrete-event simulators share one brick-set state machine and
// one event loop (kernel.go) on the calendar-queue scheduler.
package sim

import "fmt"

// eventKind enumerates simulator events. The order is part of the event
// tie-break contract below, so new kinds append only.
type eventKind int

const (
	evNodeFail eventKind = iota + 1
	evDriveFail
	evNodeRebuildDone
	evDriveRebuildDone
	evRestripeDone
	evShock
	// evClassArrival is the next failure arrival of the aggregated
	// healthy-node-set class (fleet engine only).
	evClassArrival
	// evSetArrival is the next component-failure arrival of one split
	// node set, sampled by competing risks (fleet engine only).
	evSetArrival

	numEventKinds = evSetArrival + 1
)

// String returns the snake_case metric tag of the kind.
func (k eventKind) String() string {
	switch k {
	case evNodeFail:
		return "node_fail"
	case evDriveFail:
		return "drive_fail"
	case evNodeRebuildDone:
		return "node_rebuild_done"
	case evDriveRebuildDone:
		return "drive_rebuild_done"
	case evRestripeDone:
		return "restripe_done"
	case evShock:
		return "shock"
	case evClassArrival:
		return "class_arrival"
	case evSetArrival:
		return "set_arrival"
	default:
		return fmt.Sprintf("eventKind(%d)", int(k))
	}
}

// event is one scheduled occurrence. The node/drive fields identify the
// target component; set identifies the owning brick-set record in its
// shard's slab (0 on a mission shard, -1 for the fleet's class
// arrival); seq disambiguates stale events after state changes.
type event struct {
	at    float64
	kind  eventKind
	set   int32
	node  int
	drive int
	seq   uint64
}

// less is the scheduler ordering: time first, then the explicit
// (kind, set, node, drive, seq) tie-break. Equal-time events are a
// measure-zero accident of continuous draws, but the tie-break is a
// *contract*, not a scheduler accident: any scheduler pops the same total
// order, which is what makes the calendar queue and the heap oracle's
// event sequences comparable byte for byte. The order is strict — no two
// live events compare equal, because (kind, set, node, drive) identifies
// a pending slot and seq disambiguates reschedules of that slot.
func (e event) less(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	if e.set != o.set {
		return e.set < o.set
	}
	if e.node != o.node {
		return e.node < o.node
	}
	if e.drive != o.drive {
		return e.drive < o.drive
	}
	return e.seq < o.seq
}

// scheduler is the event-queue contract the simulators run on: schedule
// inserts, next removes and returns the minimum under event.less, Len
// reports pending events, reset empties the queue for reuse.
// Cancellation is lazy everywhere — dispatchers discard stale events by
// seq — so schedulers never delete in place.
//
// calendarQueue is the one production implementation. A container/heap
// queue in heap_test.go is the test oracle: the cross-engine harness in
// equivalence_test.go holds the two to identical pop sequences, and the
// internal seams take a scheduler so tests can inject it.
type scheduler interface {
	schedule(e event)
	next() event
	Len() int
	reset()
}
