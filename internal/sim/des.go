package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// RepairDistribution selects how rebuild and restripe durations are drawn.
type RepairDistribution int

const (
	// RepairExponential matches the Markov models' memoryless repairs.
	RepairExponential RepairDistribution = iota + 1
	// RepairDeterministic uses the mean duration exactly — closer to a
	// real system whose rebuild time is data volume over bandwidth. The
	// gap between the two quantifies one of the paper's modelling
	// simplifications.
	RepairDeterministic
)

// Scenario fixes the simulated system. Rates are per hour.
type Scenario struct {
	// N nodes of D drives; redundancy sets of size R with inter-node
	// fault tolerance T. ParityDrives is the internal RAID parity count m
	// (0 = no internal RAID).
	N, R, D, T, ParityDrives int
	// LambdaN, LambdaD are node and per-drive failure rates.
	LambdaN, LambdaD float64
	// MuN, MuD are node and (no-internal-RAID) drive rebuild rates;
	// MuRestripe is the internal-RAID restripe rate.
	MuN, MuD, MuRestripe float64
	// CHER is C·HER, expected hard errors per full-drive read.
	CHER float64
	// Repair selects the repair-time distribution.
	Repair RepairDistribution
	// NodeFailureShape and DriveFailureShape are Weibull shape parameters
	// for component lifetimes (0 or 1 = exponential, the models'
	// assumption; >1 = wear-out, <1 = infant mortality). Mean lifetimes
	// stay 1/λ regardless of shape. Components are born fresh at t=0 and
	// at every replenishment, so birth-time draws are exact.
	NodeFailureShape, DriveFailureShape float64
	// ShockRate and ShockSize model correlated failures the paper's
	// independence assumption excludes: shocks arrive as a Poisson
	// process of rate ShockRate per hour and instantly fail ShockSize
	// uniformly chosen live nodes (a shared power feed, a rack event).
	// Zero disables shocks.
	ShockRate float64
	ShockSize int
}

// ScenarioFromConfig derives a simulation scenario from the analytic
// parameter set and a redundancy configuration, using the same rebuild-rate
// model the analysis uses.
func ScenarioFromConfig(p params.Parameters, cfg core.Config, repair RepairDistribution) (Scenario, error) {
	if err := p.Validate(); err != nil {
		return Scenario{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Scenario{}, err
	}
	rates := rebuild.Compute(p, cfg.NodeFaultTolerance)
	return Scenario{
		N:            p.NodeSetSize,
		R:            p.RedundancySetSize,
		D:            p.DrivesPerNode,
		T:            cfg.NodeFaultTolerance,
		ParityDrives: cfg.Internal.ParityDrives(),
		LambdaN:      p.NodeFailureRate(),
		LambdaD:      p.DriveFailureRate(),
		MuN:          rates.NodeRebuild,
		MuD:          rates.DriveRebuild,
		MuRestripe:   rates.Restripe,
		CHER:         p.CHER(),
		Repair:       repair,
	}, nil
}

// Validate reports the first problem with the scenario.
func (sc Scenario) Validate() error {
	switch {
	case sc.N < 2 || sc.D < 1:
		return fmt.Errorf("sim: invalid geometry N=%d D=%d", sc.N, sc.D)
	case sc.R < 2 || sc.R > sc.N:
		return fmt.Errorf("sim: redundancy set size %d invalid for N=%d", sc.R, sc.N)
	case sc.T < 1 || sc.T >= sc.R:
		return fmt.Errorf("sim: fault tolerance %d invalid for R=%d", sc.T, sc.R)
	case sc.ParityDrives < 0 || sc.ParityDrives > 2:
		return fmt.Errorf("sim: parity drives %d out of range", sc.ParityDrives)
	case sc.ParityDrives >= sc.D && sc.ParityDrives > 0:
		return fmt.Errorf("sim: %d drives cannot form RAID with %d parity", sc.D, sc.ParityDrives)
	case sc.LambdaN <= 0 || sc.LambdaD <= 0 || sc.MuN <= 0 || sc.MuD <= 0:
		return fmt.Errorf("sim: rates must be positive")
	case sc.ParityDrives > 0 && sc.MuRestripe <= 0:
		return fmt.Errorf("sim: restripe rate must be positive with internal RAID")
	case sc.Repair != RepairExponential && sc.Repair != RepairDeterministic:
		return fmt.Errorf("sim: unknown repair distribution %d", sc.Repair)
	case sc.CHER < 0:
		return fmt.Errorf("sim: negative CHER")
	case sc.NodeFailureShape < 0 || sc.DriveFailureShape < 0:
		return fmt.Errorf("sim: negative Weibull shape")
	case sc.NodeFailureShape > 0 && sc.NodeFailureShape < 0.2,
		sc.DriveFailureShape > 0 && sc.DriveFailureShape < 0.2:
		return fmt.Errorf("sim: Weibull shape below 0.2 is numerically pathological")
	case sc.ShockRate < 0:
		return fmt.Errorf("sim: negative shock rate")
	case sc.ShockRate > 0 && (sc.ShockSize < 1 || sc.ShockSize > sc.N):
		return fmt.Errorf("sim: shock size %d out of [1, N]", sc.ShockSize)
	}
	return nil
}

// LossCause classifies what ended a mission.
type LossCause int

const (
	// LossNone means the mission has not (yet) lost data.
	LossNone LossCause = iota
	// LossTolerance means more distinct nodes failed concurrently than
	// the inter-node fault tolerance covers.
	LossTolerance
	// LossCriticalUE means an uncorrectable read error struck during a
	// critical rebuild (the Section 5.2.2 h_α path).
	LossCriticalUE
	// LossRestripeUE means an uncorrectable read error struck during a
	// critical internal-RAID restripe (the Section 5.2.1 k_t path).
	LossRestripeUE

	lossCauseCount
)

// String returns the snake_case tag used in metrics and event streams.
func (c LossCause) String() string {
	switch c {
	case LossNone:
		return "none"
	case LossTolerance:
		return "tolerance_exceeded"
	case LossCriticalUE:
		return "critical_rebuild_ue"
	case LossRestripeUE:
		return "restripe_ue"
	default:
		return fmt.Sprintf("LossCause(%d)", int(c))
	}
}

// LossResult describes one simulated run.
type LossResult struct {
	// Time is the simulated time to the data-loss event, in hours.
	Time float64
	// Events is the number of events processed.
	Events int
	// Cause classifies the data-loss event.
	Cause LossCause
}

// missionRecorders batch the histogram samples locally — repair durations
// indexed by their completion event's kind, and times to loss; Flush
// resets them, so one set is reused across an entire Monte Carlo run
// instead of being reallocated per mission.
type missionRecorders struct {
	repair [numEventKinds]*obs.HistogramRecorder
	loss   *obs.HistogramRecorder
}

// newMissionShard builds the one-set shard that runs missions of sc on q.
// An estimator worker reuses it — record, queue, recorders — across all
// its missions; m == nil disables instrumentation.
func newMissionShard(sc Scenario, q scheduler, m *Metrics) *shard {
	s := &shard{sc: sc, q: q, horizon: math.Inf(1), mission: true, m: m}
	if m != nil {
		s.recs = &missionRecorders{loss: m.LossHours.Recorder()}
		s.recs.repair[evNodeRebuildDone] = m.NodeRebuildHours.Recorder()
		s.recs.repair[evDriveRebuildDone] = m.DriveRebuildHours.Recorder()
		s.recs.repair[evRestripeDone] = m.RestripeHours.Recorder()
	}
	s.records = []brickSet{newBrickSet(s, 0)}
	return s
}

// runMission simulates one trajectory from a fresh set at t=0 to its first
// data-loss event, drawing from rng. Every node and drive is born fresh,
// node by node (the node's lifetime, then its drives'), so birth-time
// draws are exact for any lifetime shape.
func (s *shard) runMission(rng *rand.Rand, maxEvents int) (LossResult, error) {
	s.rng = rng
	s.q.reset()
	s.now, s.events, s.losses = 0, 0, 0
	b := &s.records[0]
	b.reset()
	b.inUse = true
	for i := range b.nodes {
		b.restoreNode(i)
		b.nodeUp(i)
	}
	s.scheduleArrival(evShock, 0, 0, s.sc.ShockRate)
	if err := s.run(int64(maxEvents)); err != nil {
		return LossResult{}, err
	}
	if s.recs != nil {
		s.recs.loss.Observe(s.now)
	}
	return LossResult{Time: s.now, Events: int(s.events), Cause: s.cause}, nil
}

// flushMetrics folds the tallies of the missions run since the last flush
// into the shared registry: every completed mission ended in one loss,
// counted by cause. Callers flush once per chunk of missions, so the
// registry's atomics are touched a handful of times per chunk.
func (s *shard) flushMetrics() {
	if s.m == nil {
		return
	}
	var events, missions int64
	for k := evNodeFail; k < numEventKinds; k++ {
		if c := s.kindCount[k]; c != 0 {
			s.m.byKind[k].Add(c)
			events += c
		}
	}
	for c := LossTolerance; c < lossCauseCount; c++ {
		if n := s.byCause[c]; n != 0 {
			s.m.byCause[c].Add(n)
			missions += n
		}
	}
	s.m.Events.Add(events)
	s.m.Missions.Add(missions)
	s.kindCount = [numEventKinds]int64{}
	s.byCause = [lossCauseCount]int64{}
	for _, r := range s.recs.repair {
		if r != nil {
			r.Flush()
		}
	}
	s.recs.loss.Flush()
}

// RunUntilLoss simulates one trajectory from a fresh system to its first
// data-loss event. maxEvents bounds the run; exceeding it returns an error
// (the scenario is too reliable for naive simulation — use the biased
// estimator instead). m, when non-nil, collects the run's metrics.
func RunUntilLoss(sc Scenario, rng *rand.Rand, maxEvents int, m *Metrics) (LossResult, error) {
	if err := sc.Validate(); err != nil {
		return LossResult{}, err
	}
	s := newMissionShard(sc, newCalendarQueue(), m)
	defer s.flushMetrics()
	return s.runMission(rng, maxEvents)
}

// Estimate summarizes repeated RunUntilLoss trials.
type Estimate struct {
	Trials    int
	MeanHours float64
	StdErr    float64
	MeanEvts  float64
}

// RelHalfWidth95 returns the 95% confidence half-width relative to the
// mean, or +Inf for a zero mean.
func (e Estimate) RelHalfWidth95() float64 {
	if e.MeanHours == 0 {
		return math.Inf(1)
	}
	return 1.96 * e.StdErr / e.MeanHours
}

// missionStats accumulates mission results. Welford's online algorithm:
// the textbook sumSq - sum·mean form cancels catastrophically for MTTDLs
// of 10¹⁰ hours and beyond.
type missionStats struct {
	w    welford
	evts float64
}

func (m *missionStats) add(r LossResult) {
	m.w.observe(r.Time)
	m.evts += float64(r.Events)
}

func (m *missionStats) merge(o missionStats) {
	m.w.merge(o.w)
	m.evts += o.evts
}

func (m missionStats) estimate(trials int) Estimate {
	return Estimate{
		Trials:    trials,
		MeanHours: m.w.mean,
		StdErr:    math.Sqrt(m.w.variance() / float64(trials)),
		MeanEvts:  m.evts / float64(trials),
	}
}

// EstimateMTTDL runs independent trajectories off one shared RNG and
// aggregates the observed times to data loss, with per-mission telemetry
// through ob (the zero Observer disables it) and, under a retaining
// tracer on ctx, data_loss events on its sim.chunk spans. Trial i's
// sample depends on trials 0..i-1; EstimateMTTDLParallel draws per-trial
// streams instead.
func EstimateMTTDL(ctx context.Context, sc Scenario, rng *rand.Rand, trials, maxEventsPerTrial int, ob Observer) (Estimate, error) {
	return estimateMTTDL(ctx, sc, rng, 0, trials, maxEventsPerTrial, 1, ob)
}
