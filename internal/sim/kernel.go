package sim

// The brick-set kernel: the one state machine both simulators run. A
// brickSet is one node set — Scenario.N bricks (storage nodes) and their
// drives — and a shard runs brick sets on one scheduler and one RNG with
// one event loop. Each Section 5.2 transition is written once, as a
// method on the record that returns (lost, cause): node-level failure,
// NIR and IR drive failure, shock, node and drive rebuild, restripe with
// its k_t path, and the critical-arrival check with its h_α draw.
//
// The simulators differ only in what gets scheduled when a component
// comes back up — the clock policy, which the estimator picks:
//
//   - a mission shard (des.go) keeps one clock per component, because
//     Weibull lifetimes need them: a component that comes up draws its
//     own lifetime; the set starts fresh at t=0 and the run stops at its
//     first loss;
//   - a fleet shard (fleet.go) keeps one competing-risks arrival per
//     split set, redrawn after every event, and merges fully healthy sets
//     back into an aggregate class — exact only for memoryless lifetimes.

import (
	"fmt"
	"math/rand"

	"repro/internal/combinat"
	"repro/internal/dist"
)

// failureRef is one outstanding failure, in arrival order.
type failureRef struct {
	isNode bool
	node   int
	drive  int // meaningful when !isNode
}

// setNode is a node's live state.
type setNode struct {
	up      bool
	seq     uint64 // validates the pending node-failure event
	drives  []setDrive
	rebuild uint64 // validates the pending node-rebuild event

	// Internal RAID state.
	liveDrives int
	degraded   int // failed drives awaiting restripe
	restriping bool
	restripe   uint64 // validates the pending restripe event
}

type setDrive struct {
	up  bool
	seq uint64
}

// brickSet is one node set's record. Fleet records live in a slab and
// recycle through a freelist; a mission shard owns one record and resets
// it at the start of every mission. Validator seqs only ever increment
// within a tenancy, so stale events (including those addressed to a
// recycled record's previous tenant) are discarded by seq.
type brickSet struct {
	sh     *shard
	idx    int32 // slab index, carried by every event of the set
	inUse  bool
	arrSeq uint64 // validates the pending evSetArrival (fleet)

	nodes       []setNode
	outstanding []failureRef

	// dirty lists nodes whose state deviated from clean this fleet
	// tenancy (duplicates allowed; scrub is idempotent).
	dirty []int32

	// Incremental tallies that make the fleet's rate and health checks
	// O(1): downNodes counts !up nodes, downDrivesUp counts down drives on
	// up nodes (down nodes hide their drives from the failure rate),
	// restripingN counts nodes with a restripe in flight.
	downNodes    int
	downDrivesUp int
	restripingN  int

	// Scratch reused by every critical check and shock, so no transition
	// allocates.
	word combinat.Word
	live []int
}

// newBrickSet allocates a clean record of sh's geometry.
func newBrickSet(sh *shard, idx int32) brickSet {
	b := brickSet{sh: sh, idx: idx, nodes: make([]setNode, sh.sc.N)}
	for i := range b.nodes {
		b.nodes[i].drives = make([]setDrive, sh.sc.D)
	}
	b.reset()
	return b
}

// reset returns the record to the clean state with every validator seq
// at zero: all nodes up and fully stocked, nothing outstanding.
func (b *brickSet) reset() {
	for i := range b.nodes {
		n := &b.nodes[i]
		*n = setNode{up: true, drives: n.drives, liveDrives: b.sh.sc.D}
		for j := range n.drives {
			n.drives[j] = setDrive{up: true}
		}
	}
	b.outstanding = b.outstanding[:0]
	b.dirty = b.dirty[:0]
	b.downNodes, b.downDrivesUp, b.restripingN = 0, 0, 0
}

// restoreNode brings node i back fully stocked — spare replenishment
// keeps the population constant — and moves every validator seq on it
// past the events its previous state left in the queue.
func (b *brickSet) restoreNode(i int) {
	n := &b.nodes[i]
	n.up = true
	n.seq++
	n.restriping = false
	n.degraded = 0
	n.liveDrives = b.sh.sc.D
	for j := range n.drives {
		n.drives[j].up = true
		n.drives[j].seq++
	}
}

// nodeUp and driveUp are the clock policy: on a mission shard a
// component that comes up starts its clock — a lifetime with mean 1/λ,
// exponential for shape 0 or 1 and Weibull otherwise — the node first,
// then its drives in index order. A fleet set redraws its competing-risks
// arrival once the event settles instead.
func (b *brickSet) nodeUp(i int) {
	s := b.sh
	if !s.mission {
		return
	}
	ttf := dist.Lifetime{Mean: 1 / s.sc.LambdaN, Shape: s.sc.NodeFailureShape}.Sample(s.rng)
	s.q.schedule(event{at: s.now + ttf, kind: evNodeFail, set: b.idx, node: i, seq: b.nodes[i].seq})
	for j := range b.nodes[i].drives {
		b.driveUp(i, j)
	}
}

func (b *brickSet) driveUp(i, j int) {
	s := b.sh
	if !s.mission {
		return
	}
	ttf := dist.Lifetime{Mean: 1 / s.sc.LambdaD, Shape: s.sc.DriveFailureShape}.Sample(s.rng)
	s.q.schedule(event{at: s.now + ttf, kind: evDriveFail, set: b.idx, node: i, drive: j, seq: b.nodes[i].drives[j].seq})
}

// touch lists node i for the scrub of a lost fleet set. A mission record
// resets whole at the start of each mission and keeps no list.
func (b *brickSet) touch(i int) {
	if !b.sh.mission {
		b.dirty = append(b.dirty, int32(i))
	}
}

// nodeFailure handles a whole-node (or internal-array) failure.
func (b *brickSet) nodeFailure(i int) (bool, LossCause) {
	s := b.sh
	n := &b.nodes[i]
	n.up = false
	n.seq++
	if n.restriping {
		b.restripingN--
	}
	n.restriping = false
	// Invalidate drive events and drop subsumed drive failures: the node
	// rebuild regenerates everything the node held. The node's down drives
	// (outstanding NIR rebuilds, IR degraded drives) leave the up-node
	// scope along with it.
	for j := range n.drives {
		n.drives[j].seq++
	}
	b.touch(i)
	b.downNodes++
	before := len(b.outstanding)
	b.outstanding = removeRefs(b.outstanding, func(f failureRef) bool { return !f.isNode && f.node == i })
	b.downDrivesUp -= (before - len(b.outstanding)) + n.degraded
	b.outstanding = append(b.outstanding, failureRef{isNode: true, node: i})
	if lost, cause := b.checkCritical(); lost {
		return true, cause
	}
	n.rebuild++
	b.scheduleRepair(evNodeRebuildDone, s.sc.MuN, i, 0, n.rebuild)
	return false, LossNone
}

// driveFailure routes a drive failure by the scenario's internal RAID.
func (b *brickSet) driveFailure(i, j int) (bool, LossCause) {
	if b.sh.sc.ParityDrives > 0 {
		return b.internalDriveFailure(i, j)
	}
	return b.nirDriveFailure(i, j)
}

// nirDriveFailure handles a drive failure when drives directly carry the
// inter-node code.
func (b *brickSet) nirDriveFailure(i, j int) (bool, LossCause) {
	s := b.sh
	n := &b.nodes[i]
	n.drives[j].up = false
	n.drives[j].seq++
	b.touch(i)
	b.downDrivesUp++
	b.outstanding = append(b.outstanding, failureRef{node: i, drive: j})
	if lost, cause := b.checkCritical(); lost {
		return true, cause
	}
	b.scheduleRepair(evDriveRebuildDone, s.sc.MuD, i, j, n.drives[j].seq)
	return false, LossNone
}

// internalDriveFailure handles a drive failure inside a RAID-protected
// node.
func (b *brickSet) internalDriveFailure(i, j int) (bool, LossCause) {
	s := b.sh
	n := &b.nodes[i]
	n.drives[j].up = false
	n.drives[j].seq++
	n.degraded++
	b.touch(i)
	b.downDrivesUp++
	if n.degraded > s.sc.ParityDrives {
		// Beyond the array's tolerance: the whole node's data is gone.
		return b.nodeFailure(i)
	}
	if !n.restriping {
		n.restriping = true
		n.restripe++
		b.restripingN++
		b.scheduleRepair(evRestripeDone, s.sc.MuRestripe, i, 0, n.restripe)
	}
	return false, LossNone
}

// scheduleRepair draws a repair duration at rate — exponential, or the
// mean exactly under RepairDeterministic — samples it into the kind's
// histogram on an instrumented mission shard, and schedules the repair's
// completion event.
func (b *brickSet) scheduleRepair(kind eventKind, rate float64, i, j int, seq uint64) {
	s := b.sh
	rt := 1 / rate
	if s.sc.Repair != RepairDeterministic {
		rt = s.exp(rate)
	}
	if s.recs != nil {
		s.recs.repair[kind].Observe(rt)
	}
	s.q.schedule(event{at: s.now + rt, kind: kind, set: b.idx, node: i, drive: j, seq: seq})
}

// shock fails ShockSize uniformly chosen live nodes at once — a correlated
// failure outside the models' independence assumption.
func (b *brickSet) shock() (bool, LossCause) {
	live := b.live[:0]
	for i := range b.nodes {
		if b.nodes[i].up {
			live = append(live, i)
		}
	}
	b.live = live
	b.sh.rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
	for i := 0; i < b.sh.sc.ShockSize && i < len(live); i++ {
		if lost, cause := b.nodeFailure(live[i]); lost {
			return true, cause
		}
	}
	return false, LossNone
}

// nodeRebuilt completes node i's rebuild: the node returns fully stocked.
func (b *brickSet) nodeRebuilt(i int) {
	b.outstanding = removeRefs(b.outstanding, func(f failureRef) bool { return f.isNode && f.node == i })
	b.restoreNode(i)
	// Only the node tally moves; its drives were hidden while it was down.
	b.downNodes--
	b.nodeUp(i)
}

// driveRebuilt completes drive (i, j)'s rebuild: replenished spare
// capacity behaves like a fresh drive.
func (b *brickSet) driveRebuilt(i, j int) {
	b.outstanding = removeRefs(b.outstanding, func(f failureRef) bool {
		return !f.isNode && f.node == i && f.drive == j
	})
	d := &b.nodes[i].drives[j]
	d.up = true
	d.seq++
	b.downDrivesUp--
	b.driveUp(i, j)
}

// restripeDone completes an internal restripe: the failed drives leave the
// array and redundancy is restored. Reading the surviving data may hit an
// uncorrectable error; if the inter-node redundancy is critical at that
// moment, the error falls in a critical redundancy set with probability
// k_t and loses data (Section 5.2.1). Like the analytic models (constant
// d), the spare over-provisioning absorbs the capacity loss: the array
// returns to full strength.
func (b *brickSet) restripeDone(i int) (bool, LossCause) {
	s := b.sh
	n := &b.nodes[i]
	read := n.liveDrives - n.degraded
	// An uncorrectable read error only matters when the restripe had no
	// parity margin left (degraded == m): with RAID 6 a single-failure
	// restripe corrects UEs through the second parity, exactly as the
	// Figure 4 chain charges h only on the two-failures rebuild.
	critical := n.degraded == s.sc.ParityDrives
	n.degraded = 0
	n.restriping = false
	b.restripingN--
	if critical && s.sc.CHER > 0 && affectedNodes(b.outstanding) == s.sc.T {
		h := float64(read) * s.sc.CHER
		if h > 1 {
			h = 1
		}
		if s.rng.Float64() < h {
			kt := combinat.CriticalFraction(s.sc.N, s.sc.R, s.sc.T)
			if s.rng.Float64() < kt {
				return true, LossRestripeUE
			}
		}
	}
	// Replenish: failed drives' data now lives on spare capacity that is
	// itself subject to drive failures, so the at-risk population stays d.
	for j := range n.drives {
		if !n.drives[j].up {
			n.drives[j].up = true
			n.drives[j].seq++
			b.downDrivesUp--
			b.driveUp(i, j)
		}
	}
	n.liveDrives = s.sc.D
	return false, LossNone
}

// checkCritical applies the data-loss rules after a new failure: more
// distinct affected nodes than the fault tolerance loses data outright;
// arriving exactly at the tolerance makes the triggered rebuild critical,
// losing data with the Section 5.2.2 uncorrectable-error probability h_α.
// The h draw applies only without internal RAID: an internal array
// corrects uncorrectable read errors on its own drives, so IR node
// rebuilds are exposed only through the restripe λ_S path (exactly as in
// the paper's Figures 5–7, which carry no h terms).
func (b *brickSet) checkCritical() (bool, LossCause) {
	sc := &b.sh.sc
	affected := affectedNodes(b.outstanding)
	if affected > sc.T {
		return true, LossTolerance
	}
	if sc.ParityDrives > 0 {
		return false, LossNone
	}
	if affected == sc.T && sc.CHER > 0 && len(b.outstanding) == sc.T {
		// The outstanding failures, in arrival order, are the h-subscript
		// word of Section 5.2.2.
		w := b.word[:0]
		for _, f := range b.outstanding {
			if f.isNode {
				w = append(w, combinat.NodeFailure)
			} else {
				w = append(w, combinat.DriveFailure)
			}
		}
		b.word = w
		h := combinat.H(sc.N, sc.R, sc.D, sc.CHER, w)
		if h > 1 {
			h = 1
		}
		if b.sh.rng.Float64() < h {
			return true, LossCriticalUE
		}
	}
	return false, LossNone
}

// removeRefs deletes matching outstanding-failure entries in place,
// preserving order (the h-subscript word is arrival-ordered).
func removeRefs(refs []failureRef, match func(failureRef) bool) []failureRef {
	out := refs[:0]
	for _, f := range refs {
		if !match(f) {
			out = append(out, f)
		}
	}
	return out
}

// affectedNodes counts distinct nodes with outstanding failures — the
// most erasures any single redundancy set can currently have (each set
// holds at most one element per node). Outstanding lists are a handful of
// entries; the nested scan beats a map and allocates nothing.
func affectedNodes(refs []failureRef) int {
	distinct := 0
	for i, f := range refs {
		seen := false
		for _, g := range refs[:i] {
			if g.node == f.node {
				seen = true
				break
			}
		}
		if !seen {
			distinct++
		}
	}
	return distinct
}

// shardTally counts a shard's work and losses — a fleet shard's fold
// contribution.
type shardTally struct {
	losses         int64
	byCause        [lossCauseCount]int64
	events         int64
	splits, merges int64
	peak           int
}

// shard runs brick sets on one scheduler and one RNG: a fleet shard's
// sub-fleet up to its horizon, or one mission set up to its first loss.
type shard struct {
	sc      Scenario
	rng     *rand.Rand
	q       scheduler
	now     float64
	horizon float64

	// mission selects the per-mission clock policy (see nodeUp): one set,
	// a clock per component, and a run that stops at the first loss.
	// Otherwise the shard is a fleet shard.
	mission bool

	// healthy is the fleet's aggregate class count (fully healthy node
	// sets); classSeq validates its pending arrival; lambdaHealthy is one
	// fully healthy node set's total event rate.
	healthy       int
	classSeq      uint64
	lambdaHealthy float64

	records []brickSet
	free    []int32
	live    int

	shardTally
	cause LossCause // cause of the latest loss

	// Mission instrumentation: m is nil when disabled; per-event tallies
	// stay local and flush into the atomic registry once per chunk of
	// missions (flushMetrics).
	m         *Metrics
	recs      *missionRecorders
	kindCount [numEventKinds]int64

	// onEvent, when non-nil, observes every popped event in dispatch
	// order — the harnesses' sequence probe.
	onEvent func(event)
}

func (s *shard) exp(rate float64) float64 { return s.rng.ExpFloat64() / rate }

// scheduleArrival schedules the next arrival of a Poisson process with
// the given total rate; a process with no live rate schedules nothing.
func (s *shard) scheduleArrival(kind eventKind, set int32, seq uint64, rate float64) {
	if rate > 0 {
		s.q.schedule(event{at: s.now + s.exp(rate), kind: kind, set: set, seq: seq})
	}
}

// run is the event loop of both simulators: it pops events until the
// horizon, the event budget, or — on a mission shard — the first loss.
func (s *shard) run(maxEvents int64) error {
	for s.q.Len() > 0 {
		e := s.q.next()
		if e.at > s.horizon {
			return nil
		}
		if s.events >= maxEvents {
			if s.mission {
				return fmt.Errorf("sim: no data loss within %d events (t=%.3g h); use the biased estimator", maxEvents, s.now)
			}
			return fmt.Errorf("sim: fleet shard exceeded %d events at t=%.3g h", maxEvents, e.at)
		}
		s.now = e.at
		s.events++
		if s.m != nil {
			s.kindCount[e.kind]++
		}
		if s.onEvent != nil {
			s.onEvent(e)
		}
		s.dispatch(e)
		if s.mission && s.losses > 0 {
			return nil
		}
	}
	if s.mission {
		return fmt.Errorf("sim: event queue drained unexpectedly")
	}
	return nil
}

// dispatch applies one event if it is still valid: stale seqs (including
// events addressed to a record's previous tenant) are discarded.
func (s *shard) dispatch(e event) {
	if e.kind == evClassArrival {
		if e.seq != s.classSeq || s.healthy == 0 {
			return
		}
		s.split()
		return
	}
	b := &s.records[e.set]
	if !b.inUse {
		return
	}
	n := &b.nodes[e.node]
	var lost bool
	var cause LossCause
	switch e.kind {
	case evNodeFail:
		if !n.up || e.seq != n.seq {
			return
		}
		lost, cause = b.nodeFailure(e.node)
	case evDriveFail:
		if !n.up || e.seq != n.drives[e.drive].seq || !n.drives[e.drive].up {
			return
		}
		lost, cause = b.driveFailure(e.node, e.drive)
	case evShock:
		lost, cause = b.shock()
		if !lost {
			s.scheduleArrival(evShock, b.idx, 0, s.sc.ShockRate)
		}
	case evSetArrival:
		if e.seq != b.arrSeq {
			return
		}
		lost, cause = b.sampleFailure()
	case evNodeRebuildDone:
		if e.seq != n.rebuild || n.up {
			return
		}
		b.nodeRebuilt(e.node)
	case evDriveRebuildDone:
		if !n.up || e.seq != n.drives[e.drive].seq || n.drives[e.drive].up {
			return
		}
		b.driveRebuilt(e.node, e.drive)
	case evRestripeDone:
		if !n.up || !n.restriping || e.seq != n.restripe {
			return
		}
		lost, cause = b.restripeDone(e.node)
	}
	s.settle(b, lost, cause)
}

// settle closes one applied event: count a loss (a mission ends there; a
// lost fleet set is scrubbed and reborn into the class), merge a fully
// healthy fleet set, or redraw its failure arrival under the new rates.
func (s *shard) settle(b *brickSet, lost bool, cause LossCause) {
	if lost {
		s.losses++
		s.byCause[cause]++
		s.cause = cause
	}
	if s.mission {
		return // the run loop ends a mission at its loss
	}
	switch {
	case lost:
		s.scrub(b)
		s.reabsorb(b)
	case b.healthy():
		s.merges++
		s.reabsorb(b)
	default:
		s.rescheduleArrival(b)
	}
}
