package sim

// Fleet-scale DES: simulate a million-brick fleet over a mission horizon.
//
// A brick is one storage node (the paper's unit); the Scenario's N bricks
// form one node set, the system the chain models and the per-mission
// simulator (des.go) runs. A fleet is many independent node sets: 10⁶
// baseline bricks are 15625 sets of 64. The per-mission simulator
// schedules every component individually, so a fleet carries
// O(bricks·drives) pending events — tens of millions before the first one
// fires. The fleet engine makes the population cheap with the aggregation
// idea of Karmakar & Gopinath (arXiv 1508.02055), applied at node-set
// granularity:
//
//   - Fully-healthy node sets are statistically indistinguishable, so
//     they share ONE aggregate class record carrying a count c. The
//     class's next failure arrival is drawn from Exp(c·λ_set) — the exact
//     superposition of c independent healthy sets — and costs one pending
//     event regardless of c.
//   - When a class arrival fires, one set splits off into an individual
//     record and the sampled failure is applied to it. The splitting set
//     is fully healthy, so its failing component is found by division
//     in O(1), picking exactly what the walk over its components would
//     (healthyPick; see sampleFailure). Split sets are
//     simulated exactly, with competing-risks arrivals: one pending
//     failure-arrival event per set (category and component chosen by a
//     discrete draw over the live rates) plus its pending repairs, rather
//     than one event per component.
//   - When a split set returns to fully healthy — repairs complete, no
//     outstanding failures — it merges back into the class: its record
//     returns to a freelist, the count increments, and the class arrival
//     is redrawn. A set that loses data is counted and reborn fresh into
//     the class (the operator restores it from surviving redundancy),
//     keeping the population constant.
//
// Every split, merge and redraw is exact because exponential lifetimes
// are memoryless; the estimator therefore *requires* exponential shapes
// and rejects Weibull scenarios. At realistic rates only a handful of
// sets are degraded at once, so a million-brick fleet carries thousands
// of live records, not millions, and total work scales with the event
// count (≈ sets·λ_set·horizon), not the population.
//
// Determinism: the fleet is sharded into fixed fleetShardSets-set shards
// whose boundaries depend only on the set count; shard k runs off
// rand.New(seedstream.Derive(baseSeed, k)) on a freshly reset scheduler,
// and shard results fold in ascending shard order — bit-identical at any
// worker count. The transitions themselves are the brick-set kernel's
// (kernel.go), shared with the per-mission simulator; this file adds the
// aggregate class, the competing-risks arrival and the fleet estimator.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/seedstream"
)

// fleetShardSets is the fixed shard size in node sets. Like missionChunk,
// it is a constant: shard boundaries must depend only on the fleet size,
// never on the worker count, or cross-worker-count determinism is lost.
const fleetShardSets = 64

// DefaultFleetMaxEventsPerShard bounds one shard's event count — a
// runaway guard (λ·horizon grossly underestimated), far above any
// intended run.
const DefaultFleetMaxEventsPerShard = int64(1) << 33

// FleetMetrics bundles the fleet estimator's registry handles. Shard
// tallies accumulate locally and flush once per shard, so the hot loop
// touches no atomics.
type FleetMetrics struct {
	Bricks *obs.Counter
	Events *obs.Counter
	Losses *obs.Counter
	Splits *obs.Counter
	Merges *obs.Counter
	Shards *obs.Counter
	// InflightShards tracks shards currently simulating; it drains to 0
	// on completion or cancellation (the serve drain contract).
	InflightShards *obs.Gauge
	// PeakLiveRecords high-watermarks the split node-set records alive in
	// any shard — the aggregation-effectiveness gauge.
	PeakLiveRecords *obs.Gauge
}

// NewFleetMetrics registers the fleet metrics under "sim.fleet.".
func NewFleetMetrics(reg *obs.Registry) *FleetMetrics {
	return &FleetMetrics{
		Bricks:          reg.Counter("sim.fleet.bricks"),
		Events:          reg.Counter("sim.fleet.events"),
		Losses:          reg.Counter("sim.fleet.losses"),
		Splits:          reg.Counter("sim.fleet.splits"),
		Merges:          reg.Counter("sim.fleet.merges"),
		Shards:          reg.Counter("sim.fleet.shards"),
		InflightShards:  reg.Gauge("sim.fleet.inflight_shards"),
		PeakLiveRecords: reg.Gauge("sim.fleet.peak_live_records"),
	}
}

// FleetEstimate summarizes a fleet simulation. All fields are pure
// functions of (scenario, bricks, horizon, baseSeed): two runs at
// different worker counts compare equal with ==.
type FleetEstimate struct {
	// Bricks is the simulated brick (storage node) count — the requested
	// count rounded up to whole node sets of Scenario.N. NodeSets is
	// Bricks / N.
	Bricks   int
	NodeSets int
	// HorizonHours is the mission length; BrickYears the total simulated
	// brick exposure.
	HorizonHours float64
	BrickYears   float64
	// Losses counts data-loss events across the fleet; ByCause breaks
	// them down by LossCause.
	Losses  int64
	ByCause [lossCauseCount]int64
	// Events is the number of scheduler events processed.
	Events int64
	// Splits and Merges count node sets leaving and rejoining the
	// aggregate class; PeakLiveRecords is the largest number of
	// simultaneously split sets in any shard — the
	// aggregation-effectiveness figure.
	Splits, Merges  int64
	PeakLiveRecords int
	// LossesPerBrickYear is the observed fleet loss rate; StdErr is its
	// Poisson standard error sqrt(Losses)/BrickYears.
	LossesPerBrickYear float64
	StdErr             float64
	// MTTDLHours is the implied mean time to data loss per node set —
	// set-hours / losses, directly comparable to the chains' MTTA (+Inf
	// when no losses were observed).
	MTTDLHours float64
}

// CauseCount returns the number of losses attributed to c.
func (e FleetEstimate) CauseCount(c LossCause) int64 {
	if c < 0 || int(c) >= len(e.ByCause) {
		return 0
	}
	return e.ByCause[c]
}

// validateFleet rejects scenarios the aggregation cannot represent
// exactly: splitting and merging redraw failure arrivals, which is only
// exact for memoryless (exponential) lifetimes.
func validateFleet(sc Scenario, bricks int, horizonHours float64) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if bricks < 1 {
		return fmt.Errorf("sim: fleet needs at least 1 brick, got %d", bricks)
	}
	if !(horizonHours > 0) || math.IsInf(horizonHours, 1) {
		return fmt.Errorf("sim: fleet horizon must be positive and finite, got %v", horizonHours)
	}
	if (sc.NodeFailureShape != 0 && sc.NodeFailureShape != 1) ||
		(sc.DriveFailureShape != 0 && sc.DriveFailureShape != 1) {
		return fmt.Errorf("sim: fleet aggregation requires exponential lifetimes (Weibull shapes %g/%g are not memoryless)",
			sc.NodeFailureShape, sc.DriveFailureShape)
	}
	return nil
}

// newFleetShard builds a fleet shard of sets node sets, all starting in
// the aggregate class.
func newFleetShard(sc Scenario, sets int, horizonHours float64, rng *rand.Rand, q scheduler) *shard {
	s := &shard{
		sc:      sc,
		rng:     rng,
		q:       q,
		horizon: horizonHours,
		healthy: sets,
		lambdaHealthy: float64(sc.N)*sc.LambdaN +
			float64(sc.N*sc.D)*sc.LambdaD + sc.ShockRate,
	}
	s.redrawClassArrival()
	return s
}

// redrawClassArrival draws the aggregate class's next failure from the
// superposition of its healthy node sets, lazily cancelling any pending
// class arrival.
func (s *shard) redrawClassArrival() {
	s.classSeq++
	s.scheduleArrival(evClassArrival, -1, s.classSeq, float64(s.healthy)*s.lambdaHealthy)
}

// acquireSet takes a record off the freelist (or grows the slab during
// warmup). Freelist records are clean by the release invariant — merge
// releases a fully-healthy set, loss scrubs before release — so the
// recycled path touches no per-component state: O(1), which is what
// keeps split cost independent of N·D. Seqs only ever increment, so a
// recycled record is immune to its previous tenant's stale events.
func (s *shard) acquireSet() int32 {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		idx = int32(len(s.records))
		s.records = append(s.records, newBrickSet(s, idx))
	}
	s.records[idx].inUse = true
	s.live++
	if s.live > s.peak {
		s.peak = s.live
	}
	return idx
}

// scrub restores a lost node set to the clean state before its record is
// released: every node the tenancy dirtied goes back to fully healthy,
// and every validator seq on those nodes is bumped past any event still
// in the queue. Untouched nodes are already clean and have no pending
// events, so the cost is proportional to the tenancy's failure count,
// not to N·D.
func (s *shard) scrub(b *brickSet) {
	for _, i := range b.dirty {
		b.restoreNode(int(i))
		b.nodes[i].rebuild++
		b.nodes[i].restripe++
	}
	b.outstanding = b.outstanding[:0]
	b.downNodes, b.downDrivesUp, b.restripingN = 0, 0, 0
}

// reabsorb returns a split node set to the aggregate class (after a merge
// or a loss-and-rebirth): the record goes back to the freelist, the class
// count grows, and the class arrival is redrawn at the new rate.
func (s *shard) reabsorb(b *brickSet) {
	b.inUse = false
	b.arrSeq++ // lazily cancel the pending set arrival
	b.dirty = b.dirty[:0]
	s.free = append(s.free, b.idx)
	s.live--
	s.healthy++
	s.redrawClassArrival()
}

// rate is a split node set's total live event rate: per-up-node and
// per-live-drive failure rates plus its shock process, computed from the
// incremental tallies in O(1).
func (b *brickSet) rate() float64 {
	sc := &b.sh.sc
	upNodes := sc.N - b.downNodes
	upDrives := upNodes*sc.D - b.downDrivesUp
	return sc.ShockRate + float64(upNodes)*sc.LambdaN + float64(upDrives)*sc.LambdaD
}

// healthy reports whether a split node set has fully recovered and can
// merge back into the aggregate class — O(1) from the incremental
// tallies. (degraded > 0 implies restriping or a down node, so the three
// tallies plus the outstanding list cover every deviation.)
func (b *brickSet) healthy() bool {
	return len(b.outstanding) == 0 && b.downNodes == 0 && b.restripingN == 0 && b.downDrivesUp == 0
}

// rescheduleArrival redraws a split node set's competing-risks failure
// arrival. Exact under memorylessness: the minimum of the remaining
// exponential clocks is Exp(sum of live rates) regardless of history.
func (s *shard) rescheduleArrival(b *brickSet) {
	b.arrSeq++
	s.scheduleArrival(evSetArrival, b.idx, b.arrSeq, b.rate())
}

// sampleFailure picks WHICH component fails, proportionally to the live
// rates, and applies it. The order the rates are laid out in (shock,
// then nodes in index order, each node's drives in index order) is part
// of the deterministic contract: walkPick defines the pick, and on a
// fully healthy set — every split — healthyPick finds the same one in
// O(1) wherever rounding cannot make the two differ.
func (b *brickSet) sampleFailure() (bool, LossCause) {
	sc := &b.sh.sc
	rate := b.rate()
	if rate <= 0 {
		return false, LossNone
	}
	u := b.sh.rng.Float64() * rate
	if sc.ShockRate > 0 {
		if u < sc.ShockRate {
			return b.shock()
		}
		u -= sc.ShockRate
	}
	node, drive, ok := 0, 0, false
	if b.downNodes == 0 && b.downDrivesUp == 0 {
		node, drive, ok = healthyPick(sc, rate, u)
	}
	if !ok {
		node, drive = b.walkPick(u)
	}
	switch {
	case node >= 0 && drive >= 0:
		return b.driveFailure(node, drive)
	case node >= 0:
		return b.nodeFailure(node)
	case sc.ShockRate > 0:
		return b.shock()
	}
	return false, LossNone
}

// walkPick is the reference pick: it walks the live components in
// order, subtracting each one's rate from u until u falls inside one. It
// returns (node, -1) for a node failure, (node, drive) for a drive
// failure and (-1, -1) when no component is live. Float roundoff that
// walks off the end charges the last live component.
func (b *brickSet) walkPick(u float64) (node, drive int) {
	sc := &b.sh.sc
	lastNode, lastDriveNode, lastDrive := -1, -1, -1
	for i := range b.nodes {
		n := &b.nodes[i]
		if !n.up {
			continue
		}
		if u < sc.LambdaN {
			return i, -1
		}
		u -= sc.LambdaN
		lastNode = i
		for j := range n.drives {
			if !n.drives[j].up {
				continue
			}
			if u < sc.LambdaD {
				return i, j
			}
			u -= sc.LambdaD
			lastDriveNode, lastDrive = i, j
		}
	}
	if lastDrive >= 0 {
		return lastDriveNode, lastDrive
	}
	return lastNode, -1
}

// healthyPick is walkPick on a fully healthy set, in O(1): the live
// rates repeat in blocks of one node and its D drives, so u's block and
// its slot in the block follow by division. The pick is accepted only
// when u lies more than slack = (N·(1+D)+16)·2⁻⁵²·rate inside the picked
// component's interval. The walk's running u takes at most N·(1+D)
// subtractions, each rounding by at most 2⁻⁵³·rate, and the edges
// computed here carry a few roundings more, so outside that band no
// comparison the walk makes can come out the other way. ok is false
// inside the band, when a rate is not positive, and when slack is
// subnormal (where rounding is no longer relative); the caller walks
// then.
func healthyPick(sc *Scenario, rate, u float64) (node, drive int, ok bool) {
	n, d, lN, lD := sc.N, sc.D, sc.LambdaN, sc.LambdaD
	slack := float64(n*(1+d)+16) * 0x1p-52 * rate
	if !(lN > 0 && lD > 0 && slack >= 0x1p-1022) {
		return 0, 0, false
	}
	block := lN + float64(d)*lD
	node = n - 1
	if f := u / block; f < float64(n-1) {
		node = int(f)
	}
	w := u - float64(node)*block
	if w < lN {
		return node, -1, w > slack && lN-w > slack
	}
	w -= lN
	drive = d - 1
	if f := w / lD; f < float64(d-1) {
		drive = int(f)
	}
	lo := float64(drive) * lD
	return node, drive, w-lo > slack && lo+lD-w > slack
}

// split peels one node set off the aggregate class and applies its
// sampled first failure.
func (s *shard) split() {
	s.healthy--
	s.splits++
	s.redrawClassArrival()
	b := &s.records[s.acquireSet()]
	lost, cause := b.sampleFailure()
	s.settle(b, lost, cause)
}

// runFleetShard simulates one shard's sub-fleet of node sets on q; the
// internal seam the harness and benchmarks drive directly.
func runFleetShard(sc Scenario, sets int, horizonHours float64, rng *rand.Rand, q scheduler, maxEvents int64, onEvent func(event)) (shardTally, error) {
	s := newFleetShard(sc, sets, horizonHours, rng, q)
	s.onEvent = onEvent
	if err := s.run(maxEvents); err != nil {
		return shardTally{}, err
	}
	return s.shardTally, nil
}

// EstimateFleet simulates a fleet of bricks (storage nodes, rounded up to
// whole node sets of Scenario.N) over horizonHours. maxEventsPerShard
// bounds each shard's event count (<= 0 selects
// DefaultFleetMaxEventsPerShard); m, when non-nil, collects metrics.
// Workers poll ctx before claiming each shard, so a cancelled estimate
// stops within one shard and returns ctx.Err(). Shard k is seeded from
// seedstream.Derive(baseSeed, k) and results fold in ascending shard
// order, so the estimate is bit-identical at any worker count. workers:
// 0 = all CPUs; negative rejected.
func EstimateFleet(ctx context.Context, sc Scenario, bricks int, horizonHours float64, baseSeed int64, workers int, maxEventsPerShard int64, m *FleetMetrics) (FleetEstimate, error) {
	return estimateFleet(ctx, sc, bricks, horizonHours, baseSeed, workers, maxEventsPerShard, m,
		func() scheduler { return newCalendarQueue() })
}

// estimateFleet is EstimateFleet with every worker's scheduler built by
// newQueue — the seam that lets the harness run the heap oracle.
func estimateFleet(ctx context.Context, sc Scenario, bricks int, horizonHours float64, baseSeed int64, workers int, maxEventsPerShard int64, m *FleetMetrics, newQueue func() scheduler) (FleetEstimate, error) {
	if err := validateFleet(sc, bricks, horizonHours); err != nil {
		return FleetEstimate{}, err
	}
	if maxEventsPerShard <= 0 {
		maxEventsPerShard = DefaultFleetMaxEventsPerShard
	}
	sets := (bricks + sc.N - 1) / sc.N
	numShards := (sets + fleetShardSets - 1) / fleetShardSets
	results := make([]shardTally, numShards)
	err := core.RunWorkers(ctx, numShards, workers, func() func(int) error {
		// One queue per worker, reset between shards: its bucket slabs
		// and calibrated width carry over, and pop order never depends
		// on either.
		q := newQueue()
		return func(k int) error {
			shardSets := min(fleetShardSets, sets-k*fleetShardSets)
			if m != nil {
				m.InflightShards.Add(1)
			}
			_, sp := obs.StartSpan(ctx, "sim.fleet.shard")
			if sp != nil {
				sp.SetAttr("shard", k)
				sp.SetAttr("sets", shardSets)
			}
			q.reset()
			rng := rand.New(rand.NewSource(seedstream.Derive(baseSeed, uint64(k))))
			res, err := runFleetShard(sc, shardSets, horizonHours, rng, q, maxEventsPerShard, nil)
			sp.End()
			if m != nil {
				m.InflightShards.Add(-1)
			}
			if err != nil {
				return fmt.Errorf("shard %d: %w", k, err)
			}
			if m != nil {
				m.Shards.Inc()
				m.Bricks.Add(int64(shardSets * sc.N))
				m.Events.Add(res.events)
				m.Losses.Add(res.losses)
				m.Splits.Add(res.splits)
				m.Merges.Add(res.merges)
				m.PeakLiveRecords.Max(float64(res.peak))
			}
			results[k] = res
			return nil
		}
	})
	if err != nil {
		return FleetEstimate{}, err
	}
	// Deterministic reduction: fold shard results in ascending order.
	est := FleetEstimate{Bricks: sets * sc.N, NodeSets: sets, HorizonHours: horizonHours}
	for k := range results {
		res := &results[k]
		est.Losses += res.losses
		for c := range res.byCause {
			est.ByCause[c] += res.byCause[c]
		}
		est.Events += res.events
		est.Splits += res.splits
		est.Merges += res.merges
		est.PeakLiveRecords = max(est.PeakLiveRecords, res.peak)
	}
	brickHours := float64(est.Bricks) * horizonHours
	est.BrickYears = brickHours / 8760
	est.LossesPerBrickYear = float64(est.Losses) / est.BrickYears
	est.StdErr = math.Sqrt(float64(est.Losses)) / est.BrickYears
	if est.Losses > 0 {
		est.MTTDLHours = float64(sets) * horizonHours / float64(est.Losses)
	} else {
		est.MTTDLHours = math.Inf(1)
	}
	return est, nil
}
