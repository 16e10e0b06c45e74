package sim

// Deterministic parallel Monte Carlo. Missions (and biased regenerative
// cycles) are embarrassingly parallel, but a naive port — one shared
// *rand.Rand, per-worker accumulators merged on completion — would make
// the estimate depend on the worker count and on goroutine scheduling.
// The parallel estimators here guarantee *bit-identical results at any
// worker count* by construction:
//
//   - every trial's RNG is derived from (baseSeed, trialIndex) via the
//     splitmix64 stream in internal/seedstream, so the sample drawn for
//     trial i is a pure function of the base seed, never of which worker
//     ran it or what ran before it;
//   - work is handed out in fixed-size chunks whose boundaries depend
//     only on the trial count, never on the worker count; each chunk's
//     accumulator (a Welford state for the DES, moment sums for the
//     biased estimator) is stored by chunk index;
//   - the final reduction folds chunk accumulators in ascending chunk
//     order (Chan et al.'s pairwise Welford combine for the DES), so the
//     floating-point rounding sequence is fixed no matter how chunks
//     were scheduled.
//
// Each mission's data_loss event lands on its chunk's sim.chunk span, in
// mission order, so a retained trace holds the same per-chunk events at
// any worker count; the span belongs to the worker running the chunk, so
// recording takes no lock. OnMission callbacks are serialized under a
// mutex and arrive in a scheduling-dependent order; per-worker obs
// recorders keep the shared registry to a handful of atomic adds per
// chunk.
//
// Every estimator — missions, biased cycles and fleet shards — runs its
// chunks on the repository's one worker pool, core.RunWorkers, which
// builds per-worker state (a mission shard and its RNG, a fleet event
// queue) once per pool goroutine; the serial estimators run on it too,
// as one worker drawing every sample from the caller's RNG. On error it stops early and reports the error of the
// lowest-numbered failing chunk it observed; errors are deterministic in
// content (chunks are pure functions of the seed) but a lower-indexed
// chunk that was never started under one schedule may win under another.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/seedstream"
)

// missionChunk is the unit of parallel work for DES missions: small
// enough to load-balance across workers, large enough that the per-chunk
// bookkeeping vanishes against mission cost. It is a constant — chunk
// boundaries must not depend on the worker count, or determinism across
// worker counts is lost.
const missionChunk = 64

// cycleChunk is the unit of parallel work for biased regenerative
// cycles. Cycles are a few transitions each, so chunks are big enough to
// amortize the per-chunk RNG construction (seeding math/rand costs ~2k
// arithmetic ops) and the scheduling handshake.
const cycleChunk = 1024

// EstimateMTTDLParallel estimates MTTDL like EstimateMTTDL, but runs
// trials on a pool of workers. Unlike the serial estimator — whose shared
// RNG makes trial i depend on trials 0..i-1 — each trial's RNG is seeded
// from seedstream.Derive(baseSeed, trialIndex), so the returned Estimate
// is bit-identical for every workers value (including 1) at a fixed
// baseSeed. workers: 0 = all CPUs; negative rejected.
//
// Workers poll ctx before claiming each chunk (missionChunk missions), so
// a cancelled estimate stops within one chunk and returns ctx.Err() (a
// genuine trial error observed before cancellation wins). Under a
// retaining tracer each chunk's sim.chunk span carries its missions'
// data_loss events; OnMission callbacks are serialized (one at a time,
// from pool goroutines); metrics use per-worker recorders and the
// lock-free registry.
func EstimateMTTDLParallel(ctx context.Context, sc Scenario, baseSeed int64, trials, maxEventsPerTrial, workers int, ob Observer) (Estimate, error) {
	return estimateMTTDL(ctx, sc, nil, baseSeed, trials, maxEventsPerTrial, workers, ob)
}

// estimateMTTDL runs both MTTDL estimators on the worker pool. A non-nil
// shared RNG is the serial estimator: one worker, every trial drawing
// from shared in trial order into one running accumulator. Otherwise
// trial i draws from seedstream.Derive(baseSeed, i) and the chunk
// accumulators fold in ascending chunk order.
func estimateMTTDL(ctx context.Context, sc Scenario, shared *rand.Rand, baseSeed int64, trials, maxEventsPerTrial, workers int, ob Observer) (Estimate, error) {
	if trials < 2 {
		return Estimate{}, fmt.Errorf("sim: need at least 2 trials, got %d", trials)
	}
	if err := sc.Validate(); err != nil {
		return Estimate{}, err
	}
	if shared != nil {
		workers = 1
	}
	numChunks := (trials + missionChunk - 1) / missionChunk
	chunkStats := make([]missionStats, numChunks)
	// mu serializes OnMission, which never runs concurrently.
	var mu sync.Mutex
	err := core.RunWorkers(ctx, numChunks, workers, func() func(int) error {
		// One mission shard and one RNG per worker, reused across all its
		// missions: reseeding reproduces a fresh rand.New stream exactly.
		s := newMissionShard(sc, newCalendarQueue(), ob.Metrics)
		rng := shared
		if rng == nil {
			rng = rand.New(rand.NewSource(0))
		}
		return func(c int) error {
			lo := c * missionChunk
			hi := min(lo+missionChunk, trials)
			// One span per chunk, not per mission: chunk granularity
			// keeps trace volume (and the disabled-path context probe)
			// at 1/64 of the mission count.
			_, csp := obs.StartSpan(ctx, "sim.chunk")
			if csp != nil {
				csp.SetAttr("lo", lo)
				csp.SetAttr("hi", hi)
			}
			defer csp.End()
			recording := csp.Recording()
			defer s.flushMetrics()
			st := &chunkStats[c]
			if shared != nil {
				st = &chunkStats[0]
			}
			for i := lo; i < hi; i++ {
				if shared == nil {
					rng.Seed(seedstream.Derive(baseSeed, uint64(i)))
				}
				r, err := s.runMission(rng, maxEventsPerTrial)
				if err != nil {
					return fmt.Errorf("trial %d: %w", i, err)
				}
				if recording {
					csp.Event("data_loss", r.Time, map[string]any{
						"mission": i,
						"cause":   r.Cause.String(),
						"events":  r.Events,
					})
				}
				if ob.OnMission != nil {
					mu.Lock()
					ob.OnMission(i, r)
					mu.Unlock()
				}
				st.add(r)
			}
			return nil
		}
	})
	if err != nil {
		return Estimate{}, err
	}
	// Deterministic reduction: fold chunks in ascending index order.
	var agg missionStats
	for _, st := range chunkStats {
		agg.merge(st)
	}
	return agg.estimate(trials), nil
}

// EstimateMTTABiasedParallel is EstimateMTTABiased on a worker pool.
// Cycles are partitioned into fixed chunks of cycleChunk; chunk k runs
// off an RNG seeded from seedstream.Derive(baseSeed, k), and chunk moment
// sums fold in chunk order, so the result is bit-identical for every
// workers value at a fixed baseSeed. workers: 0 = all CPUs; negative
// rejected. Workers poll ctx before claiming each chunk, so a
// cancelled estimate stops within one chunk and returns ctx.Err().
func EstimateMTTABiasedParallel(ctx context.Context, c *markov.Chain, baseSeed int64, cycles int, delta, repairThreshold float64, workers int) (BiasedEstimate, error) {
	return estimateMTTABiased(ctx, c, nil, baseSeed, cycles, delta, repairThreshold, workers)
}

// estimateMTTABiased runs both biased estimators on the worker pool; a
// non-nil shared RNG is the serial estimator, as in estimateMTTDL.
func estimateMTTABiased(ctx context.Context, c *markov.Chain, shared *rand.Rand, baseSeed int64, cycles int, delta, repairThreshold float64, workers int) (BiasedEstimate, error) {
	if err := c.Validate(); err != nil {
		return BiasedEstimate{}, err
	}
	if cycles < 2 {
		return BiasedEstimate{}, fmt.Errorf("sim: need at least 2 cycles, got %d", cycles)
	}
	if delta <= 0 || delta >= 1 {
		return BiasedEstimate{}, fmt.Errorf("sim: delta %v must lie in (0,1)", delta)
	}
	init := c.Initial()
	if c.IsAbsorbing(init) {
		return BiasedEstimate{MTTA: 0, Cycles: cycles, CycleLossProbability: 1}, nil
	}
	if shared != nil {
		workers = 1
	}
	// Plans are read-only after construction: shared across the pool.
	plans := buildBiasPlans(c, delta, repairThreshold)
	numChunks := (cycles + cycleChunk - 1) / cycleChunk
	chunkSums := make([]biasedSums, numChunks)
	err := core.RunWorkers(ctx, numChunks, workers, func() func(int) error {
		return func(k int) error {
			rng, sums := shared, &chunkSums[0]
			if shared == nil {
				rng, sums = rand.New(rand.NewSource(seedstream.Derive(baseSeed, uint64(k)))), &chunkSums[k]
			}
			for i := k * cycleChunk; i < min((k+1)*cycleChunk, cycles); i++ {
				x, y, err := runBiasedCycle(c, plans, init, rng)
				if err != nil {
					return err
				}
				sums.add(x, y)
			}
			return nil
		}
	})
	if err != nil {
		return BiasedEstimate{}, err
	}
	var total biasedSums
	for k := range chunkSums {
		total.merge(chunkSums[k])
	}
	return total.estimate()
}
