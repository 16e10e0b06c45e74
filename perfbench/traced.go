package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// wallLayers are the span names whose wall shares are reported as
// <name>.wall_ms; shares of any other span name add up in
// obs.other_wall_ms.
var wallLayers = []string{
	"serve.canonicalize", "serve.cache", "serve.compute",
	"core.sweep", "chain.freeze", "markov.solve", "dense.solve", "markov.batch",
	"sparse.symbolic", "sparse.refactor", "sparse.solve",
	"plan.search", "plan.enumerate", "plan.prune", "plan.confirm", "plan.rank",
	"sim.fleet.shard",
}

// selfLayers are the span names reported as <name>.self_ms.
var selfLayers = []string{
	"serve.canonicalize", "serve.compute", "core.sweep", "chain.freeze", "markov.solve",
	"dense.solve", "sparse.symbolic", "plan.enumerate", "plan.prune", "plan.confirm", "plan.rank",
}

// replayBudget bounds the time the layer replay spends per run.
const replayBudget = 2 * time.Second

// tracedRun measures the per-layer metrics: an untraced window and a
// traced window over the same job stream (their p50 ratio is the tracing
// overhead), span attribution of the traced window, registry counter
// deltas, and the benchmark-timed layer replay.
func tracedRun(o options) (result, error) {
	w := o.workload
	res := result{Metrics: map[string]metric{}}
	sp, err := newSpool(o.work)
	if err != nil {
		return res, err
	}
	defer sp.close()
	half := time.Duration(o.seconds) * time.Second / 2

	// Untraced reference window.
	srvU := serve.New(serve.Options{})
	warmU, err := warmUp(srvU.Handler(), w.warm(o.seed), sp)
	if err != nil {
		return res, err
	}
	phU, err := drive(srvU.Handler(), w, o.seed, half, sp, nil)
	if err != nil {
		return res, err
	}

	// Traced window. The server is built after the untraced window: it
	// re-points the solver packages' metrics at its own registry.
	tb := &traceBuffer{}
	srvT := serve.New(serve.Options{TraceWriter: tb})
	warmT, err := warmUp(srvT.Handler(), w.warm(o.seed), sp)
	if err != nil {
		return res, err
	}
	tb.buf.Reset()
	tb.size.Store(0)
	before := srvT.Registry().Snapshot()
	phT, err := drive(srvT.Handler(), w, o.seed, half, sp, tb.full)
	if err != nil {
		return res, err
	}
	after := srvT.Registry().Snapshot()
	// The checks below may serve requests of their own; the window's spans
	// are the ones written so far.
	spans := bytes.Clone(tb.buf.Bytes())
	if err := sp.flush(); err != nil {
		return res, err
	}

	cU := newChecker(w, srvU.Handler(), sp)
	nU, failU := checkAll(cU, o, warmU, phU.records)
	cT := newChecker(w, srvT.Handler(), sp)
	nT, failT := checkAll(cT, o, warmT, phT.records)
	res.Attempted = nU + nT
	reportFailures(&res, append(failU, failT...))
	cT.planDirect += cU.planDirect
	cT.planDirectCalls += cU.planDirectCalls

	at := newAttribution()
	if err := at.addJSONL(spans); err != nil {
		return res, err
	}
	if at.requests != len(phT.records) {
		reportFailures(&res, []string{fmt.Sprintf("trace holds %d requests, %d were served", at.requests, len(phT.records))})
	}
	rt, err := replay(o, sp, phT.records)
	if err != nil {
		reportFailures(&res, []string{err.Error()})
	}

	layerMetrics(&res, at, before, after, phU, phT, rt, cT)
	if f := res.Metrics["obs.share_sum_frac"].Value; math.Abs(f-1) > 0.05 {
		reportFailures(&res, []string{fmt.Sprintf("wall shares plus unattributed time are %.4f of traced wall time", f)})
	}
	res.Correct = res.Failed == 0
	path, err := writeTrace(o, spans)
	if err != nil {
		return res, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s traced run: %d untraced and %d traced requests; spans in %s",
			w.name, len(phU.records), len(phT.records), path),
		fmt.Sprintf("layer replay: %d cells (%d sparse), %d encodes; %d direct plan searches",
			rt.cells, rt.sparseCells, rt.encodes, cT.planDirectCalls))
	return res, nil
}

// replay runs the benchmark-timed layer calls on the traced window's
// sweep responses, within replayBudget.
func replay(o options, sp *spool, recs []record) (*replayTimes, error) {
	rt := &replayTimes{}
	next := o.workload.next(o.seed)
	seq := 0
	var j job
	start := time.Now()
	done := map[int64]bool{} // spool offsets replayed (a repeat shares its first body's)
	for _, r := range recs {
		for seq <= r.seq {
			j = next()
			seq++
		}
		s, ok := j.spec.(sweepSpec)
		off := r.off
		if off < 0 {
			off = -off - 1
		}
		if !ok || done[off] || r.status != 200 {
			continue
		}
		done[off] = true
		if time.Since(start) > replayBudget {
			break
		}
		body, err := sp.get(off)
		if err != nil {
			return rt, err
		}
		var resp serve.SweepResponse
		if j.ndjson {
			hdr, rows, err := splitStream(body)
			if err != nil {
				return rt, err
			}
			if err := json.Unmarshal(splice(hdr.Parameter, hdr.Method, rows), &resp); err != nil {
				return rt, fmt.Errorf("decode spliced stream: %w", err)
			}
		} else if resp, err = rt.replayEncode(body); err != nil {
			return rt, err
		}
		if err := rt.replaySweep(s, resp); err != nil {
			return rt, err
		}
	}
	return rt, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics fills the per-layer metrics.
func layerMetrics(res *result, at *attribution, before, after obs.Snapshot, phU, phT phase, rt *replayTimes, c *checker) {
	n := float64(at.requests)
	perReqMS := func(seconds float64) float64 { return 1e3 * ratio(seconds, n) }
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }

	var clientWall, bytesOut float64
	for _, r := range phT.records {
		clientWall += r.lat
		bytesOut += float64(r.size)
	}
	outside := clientWall - at.rootWall
	unattributed := at.share["serve.request"] + outside
	var named, other float64
	for name, v := range at.share {
		if name != "serve.request" {
			named += v
		}
	}
	for _, name := range wallLayers {
		res.set(name+".wall_ms", perReqMS(at.share[name]), "ms")
		other -= at.share[name]
	}
	other += named
	res.set("obs.other_wall_ms", perReqMS(other), "ms")
	res.set("obs.share_sum_frac", ratio(named+unattributed, clientWall), "ratio")
	res.set("obs.attributed_frac", ratio(named, clientWall), "ratio")
	res.set("serve.unattributed_ms", perReqMS(unattributed), "ms")
	res.set("serve.outside_root_ms", perReqMS(outside), "ms")
	for _, name := range selfLayers {
		res.set(name+".self_ms", perReqMS(at.self[name]), "ms")
	}
	res.set("serve.queue_ms", perReqMS(at.queue), "ms")
	res.set("serve.cache.hit_ratio", ratio(delta("serve.cache.hits"), delta("serve.cache.hits")+delta("serve.cache.misses")), "ratio")
	res.set("serve.response_kb", ratio(bytesOut/1024, float64(len(phT.records))), "KB")
	res.set("serve.encode_ms", 1e3*ratio(rt.encode.Seconds(), float64(rt.encodes)), "ms")

	res.set("model.refill_us_per_cell", 1e6*ratio(rt.refill.Seconds(), float64(rt.refills)), "us")
	res.set("markov.batch_solve_us_per_cell", 1e6*ratio(rt.batchSolve.Seconds(), float64(rt.cells)), "us")
	res.set("sparse.refactor_us_per_cell", 1e6*ratio(rt.refactor.Seconds(), float64(rt.sparseCells)), "us")
	res.set("sparse.solve_us_per_cell", 1e6*ratio(rt.sparseSolve.Seconds(), float64(rt.sparseCells)), "us")

	res.set("markov.batch.busy_ms", perReqMS(at.busy["markov.batch"]), "ms")
	res.set("markov.batch.cells", ratio(delta("markov.batch.cells"), n), "count")
	res.set("markov.batch.chunks", ratio(delta("markov.batch.chunks"), n), "count")
	reuse, builds := delta("markov.sparse.symbolic_reuse"), delta("markov.sparse.symbolic_builds")
	res.set("markov.sparse.symbolic_reuse_ratio", ratio(reuse, reuse+builds), "ratio")
	fallbacks := delta("markov.sparse.dense_fallbacks")
	res.set("markov.sparse.dense_fallback_ratio", ratio(fallbacks, fallbacks+delta("markov.sparse.solves")), "ratio")

	enumerated := delta("plan.candidates.enumerated")
	res.set("plan.prune_ratio", ratio(enumerated-delta("plan.candidates.confirmed"), enumerated), "ratio")
	res.set("plan.direct_ms", 1e3*ratio(c.planDirect.Seconds(), float64(c.planDirectCalls)), "ms")
	res.set("rebuild.computes_per_candidate", ratio(delta("rebuild.computes"), enumerated), "count")

	shardBusy := at.busy["sim.fleet.shard"]
	res.set("sim.fleet.shard.busy_ms", perReqMS(shardBusy), "ms")
	res.set("sim.fleet.events", ratio(delta("sim.fleet.events"), n), "count")
	res.set("sim.fleet.events_per_busy_s", ratio(delta("sim.fleet.events"), shardBusy), "1/s")
	res.set("sim.fleet.splits", ratio(delta("sim.fleet.splits"), n), "count")
	res.set("sim.fleet.merges", ratio(delta("sim.fleet.merges"), n), "count")
	res.set("sim.fleet.peak_live_records", after.Gauges["sim.fleet.peak_live_records"], "count")

	res.set("obs.trace_overhead", ratio(percentile(latencies(phT.records), 50), percentile(latencies(phU.records), 50)), "ratio")
	res.set("obs.orphan_spans", ratio(float64(at.orphans), n), "count")
	res.set("obs.traced_requests", n, "count")
}
