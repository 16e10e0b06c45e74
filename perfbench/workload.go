package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/plan"
	"repro/internal/serve"
)

// A job is one generated request: its wire form and the typed spec the
// output checks compare the response against.
type job struct {
	// class names the request kind; set-up serves one job of each class.
	class  string
	path   string
	ndjson bool
	body   []byte
	// ident identifies a reused request: jobs with the same ident >= 0
	// carry the same body and must get the same response bytes. -1 marks a
	// request that is not reused.
	ident int
	spec  any // analyzeSpec, sweepSpec, planSpec or fleetSpec
}

type analyzeSpec struct {
	p      params.Parameters
	cfg    core.Config
	method core.Method
}

type sweepSpec struct {
	p      params.Parameters
	cfgs   []core.Config
	method core.Method
	param  string
	values []float64
}

type planSpec struct {
	p     params.Parameters
	space plan.Space
}

type fleetSpec struct {
	p      params.Parameters
	cfg    core.Config
	bricks int
	years  float64
	seed   int64
}

// workload is one traffic mix.
type workload struct {
	name string
	// pair makes the client stop only when the number of issued requests is
	// a multiple of it, so alternating request kinds stay balanced.
	pair int
	// sliceMin is the fewest requests a measurement slice holds.
	sliceMin int
	// streamed makes first_row_ms time the first point row of the NDJSON
	// sweeps. Otherwise it times the first body byte of every response:
	// on serve-mix the NDJSON sweeps are 5% of the traffic, and their first
	// rows spread more from run to run than any other time it reports.
	streamed bool
	// tailPct is the latency percentile reported as tail_ms, taken within
	// each slice, with ten or more samples beyond it: p99 of serve-mix's
	// 1000 or more requests a slice, p90 of the 100 or more of sweep-deep
	// and plan-stock, and the slower request of each fleet-decade pair.
	tailPct float64
	// tolExact is the relative tolerance of exact-chain values against
	// core.MethodExactStable on this workload's inputs.
	tolExact float64
	// warm returns one job of each request class, served untimed during
	// set-up; next returns the timed job stream. Both are pure functions
	// of the seed.
	warm func(seed int64) []job
	next func(seed int64) func() job
}

var workloads = []*workload{
	{
		name: "serve-mix", pair: 1, sliceMin: 1000, tailPct: 99, tolExact: 1e-3,
		warm: mixWarm, next: mixStream,
	},
	{
		name: "sweep-deep", pair: 2, sliceMin: 100, streamed: true, tailPct: 90, tolExact: 5e-3,
		warm: deepWarm, next: deepStream,
	},
	{
		name: "plan-stock", pair: 1, sliceMin: 100, tailPct: 90, tolExact: 0,
		warm: planWarm, next: planStream,
	},
	{
		name: "fleet-decade", pair: 2, sliceMin: 2, tailPct: 100, tolExact: 0,
		warm: fleetWarm, next: fleetStream,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Seed substreams: the warm-up jobs, the hot pool and the timed stream
// draw from independent generators derived from the workload seed.
const (
	streamWarm = 1
	streamHot  = 2
	streamCold = 3
)

func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + stream))
}

// jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
func jitter(r *rand.Rand, base, frac float64) float64 {
	return base * (1 + frac*(2*r.Float64()-1))
}

// geomValues returns n values spaced geometrically from lo to hi.
func geomValues(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return out
}

var internalNames = map[core.InternalRedundancy]string{
	core.InternalNone:  "none",
	core.InternalRAID5: "raid5",
	core.InternalRAID6: "raid6",
}

var allInternals = []core.InternalRedundancy{core.InternalNone, core.InternalRAID5, core.InternalRAID6}

// jitteredParams is the paper baseline with node MTTF, drive MTTF and hard
// error rate drawn around their baseline values.
func jitteredParams(r *rand.Rand) params.Parameters {
	p := params.Baseline()
	p.NodeMTTFHours = jitter(r, p.NodeMTTFHours, 0.5)
	p.DriveMTTFHours = jitter(r, p.DriveMTTFHours, 0.5)
	p.HardErrorRate = p.HardErrorRate * math.Pow(10, 2*r.Float64()-1)
	return p
}

// patch spells p on the wire as an override of the baseline preset. Only
// the fields the generators vary are sent.
func patch(p params.Parameters) *serve.ParamsPatch {
	return &serve.ParamsPatch{
		NodeMTTFHours:     &p.NodeMTTFHours,
		DriveMTTFHours:    &p.DriveMTTFHours,
		HardErrorRate:     &p.HardErrorRate,
		RedundancySetSize: &p.RedundancySetSize,
	}
}

func configSpec(c core.Config) serve.ConfigSpec {
	return serve.ConfigSpec{Internal: internalNames[c.Internal], FT: c.NodeFaultTolerance}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs are plain data
	}
	return b
}

func analyzeJob(s analyzeSpec, ident int) job {
	class := "analyze-closed-form"
	if s.method == core.MethodExactChain {
		class = "analyze-exact-chain"
	}
	return job{class: class, path: "/v1/analyze", ident: ident, spec: s,
		body: mustJSON(serve.AnalyzeRequest{Params: patch(s.p), Config: configSpec(s.cfg), Method: s.method.String()})}
}

func sweepJob(s sweepSpec, ndjson bool, ident int) job {
	cfgs := make([]serve.ConfigSpec, len(s.cfgs))
	for i, c := range s.cfgs {
		cfgs[i] = configSpec(c)
	}
	class := "sweep"
	if ndjson {
		class = "sweep-ndjson"
	}
	return job{class: class, path: "/v1/sweep", ndjson: ndjson, ident: ident, spec: s,
		body: mustJSON(serve.SweepRequest{Params: patch(s.p), Configs: cfgs, Method: s.method.String(),
			Parameter: s.param, Values: s.values})}
}

func planJob(s planSpec, ident int) job {
	var sp *serve.PlanSpaceSpec
	if s.space.Size() != plan.DefaultSpace().Size() {
		names := make([]string, len(s.space.Internals))
		for i, ir := range s.space.Internals {
			names[i] = internalNames[ir]
		}
		sp = &serve.PlanSpaceSpec{
			Internals: names, FaultTolerances: s.space.FaultTolerances,
			RedundancySetSizes: s.space.RedundancySetSizes, SpareNodes: s.space.SpareNodes,
			Utilizations: s.space.Utilizations, RebuildBytes: s.space.RebuildBytes,
		}
	}
	return job{class: "plan", path: "/v1/plan", ident: ident, spec: s,
		body: mustJSON(serve.PlanRequest{Params: patch(s.p), Space: sp})}
}

func fleetJob(s fleetSpec, ident int) job {
	return job{class: "fleet", path: "/v1/simulate", ident: ident, spec: s,
		body: mustJSON(serve.SimulateRequest{Params: patch(s.p), Config: configSpec(s.cfg), Seed: s.seed,
			Fleet: &serve.FleetSpec{Bricks: s.bricks, Years: s.years}})}
}

// ---- serve-mix ----

// mixClass is a serve-mix request class.
type mixClass int

const (
	mixClosedForm mixClass = iota
	mixExactChain
	mixSweep
	mixSweepNDJSON
	mixPlan
	mixFleet
)

// mixBlock is one block of 40 requests with the mix's exact class
// fractions: 85% analyze (half closed-form, half exact-chain), 10%
// exact-chain sweeps (half NDJSON), 2.5% small plans and 2.5% small fleet
// simulations. Fixed fractions keep the mix the same at every seed.
var mixBlock = func() []mixClass {
	var b []mixClass
	for _, c := range []struct {
		class mixClass
		n     int
	}{{mixClosedForm, 17}, {mixExactChain, 17}, {mixSweep, 2}, {mixSweepNDJSON, 2}, {mixPlan, 1}, {mixFleet, 1}} {
		for i := 0; i < c.n; i++ {
			b = append(b, c.class)
		}
	}
	return b
}()

// mixSweepKnobs are the parameters the mix's sweeps vary, with their
// value ranges.
var mixSweepKnobs = []struct {
	name   string
	lo, hi float64
}{
	{"drive_mttf_hours", 1e5, 1e6},
	{"node_mttf_hours", 1e5, 1e6},
	{"hard_error_rate", 1e-15, 1e-13},
}

// mixJob draws one serve-mix request of the given class.
func mixJob(r *rand.Rand, class mixClass, ident int) job {
	p := jitteredParams(r)
	switch class {
	case mixClosedForm, mixExactChain:
		m := core.MethodClosedForm
		if class == mixExactChain {
			m = core.MethodExactChain
		}
		cfg := core.Config{Internal: allInternals[r.Intn(3)], NodeFaultTolerance: 1 + r.Intn(3)}
		return analyzeJob(analyzeSpec{p: p, cfg: cfg, method: m}, ident)
	case mixSweep, mixSweepNDJSON:
		perm := r.Perm(9)
		cfgs := make([]core.Config, 3)
		for i := range cfgs {
			cfgs[i] = core.Config{Internal: allInternals[perm[i]%3], NodeFaultTolerance: 1 + perm[i]/3}
		}
		k := mixSweepKnobs[r.Intn(len(mixSweepKnobs))]
		lo := jitter(r, k.lo, 0.3)
		s := sweepSpec{p: p, cfgs: cfgs, method: core.MethodExactChain, param: k.name,
			values: geomValues(lo, lo*k.hi/k.lo, 64)}
		return sweepJob(s, class == mixSweepNDJSON, ident)
	case mixPlan:
		return planJob(planSpec{p: p, space: smallSpace()}, ident)
	default:
		return fleetJob(fleetSpec{p: params.Baseline(), cfg: core.Config{Internal: core.InternalNone, NodeFaultTolerance: 1 + r.Intn(2)},
			bricks: 10_000, years: 1, seed: r.Int63()}, ident)
	}
}

// smallSpace is an explicit 216-candidate design space.
func smallSpace() plan.Space {
	return plan.Space{
		Internals:          allInternals,
		FaultTolerances:    []int{1, 2},
		RedundancySetSizes: []int{6, 8, 10},
		SpareNodes:         []int{0, 8},
		Utilizations:       []float64{0.6, 0.75, 0.9},
		RebuildBytes:       []float64{128 * params.KiB, 512 * params.KiB},
	}
}

func mixWarm(seed int64) []job {
	r := rng(seed, streamWarm)
	out := make([]job, 0, mixFleet+1)
	for c := mixClosedForm; c <= mixFleet; c++ {
		out = append(out, mixJob(r, c, -1))
	}
	return out
}

// mixStream alternates hot and cold requests. The hot pool is two blocks
// (80 requests) served round-robin in a fixed shuffled order, so a hot
// request recurs every 160 requests: with at most 159 other keys used in
// between it stays in the 256-entry LRU result cache and always hits. Cold
// requests are fresh draws from a continuous parameter space, a block of
// classes at a time in shuffled order, and always miss.
func mixStream(seed int64) func() job {
	hr := rng(seed, streamHot)
	var hot []job
	for rep := 0; rep < 2; rep++ {
		for _, c := range mixBlock {
			hot = append(hot, mixJob(hr, c, len(hot)))
		}
	}
	hr.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	r := rng(seed, streamCold)
	var block []mixClass
	n := 0
	return func() job {
		n++
		if n%2 == 1 {
			return hot[(n/2)%len(hot)]
		}
		if len(block) == 0 {
			block = append(block, mixBlock...)
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		c := block[0]
		block = block[1:]
		return mixJob(r, c, -1)
	}
}

// ---- sweep-deep, plan-stock: cold streams cycling a pool of bases ----

// coldCycle is the number of distinct jittered bases a cold stream
// cycles through in order. It exceeds the 256-entry LRU result cache, so
// a base is always evicted before it comes round again, and it is odd, so
// an alternating request kind (buffered/NDJSON) flips between cycles.
const coldCycle = 261

func cycle(r *rand.Rand, draw func(*rand.Rand) params.Parameters) func() (params.Parameters, int) {
	bases := make([]params.Parameters, coldCycle)
	for i := range bases {
		bases[i] = draw(r)
	}
	i := 0
	return func() (params.Parameters, int) {
		b := i % coldCycle
		i++
		return bases[b], b
	}
}

var deepConfigs = []core.Config{
	{Internal: core.InternalNone, NodeFaultTolerance: 5},
	{Internal: core.InternalNone, NodeFaultTolerance: 6},
	{Internal: core.InternalNone, NodeFaultTolerance: 7},
	{Internal: core.InternalRAID5, NodeFaultTolerance: 5},
	{Internal: core.InternalRAID6, NodeFaultTolerance: 5},
}

// deepParams is a jittered base at redundancy set size 48 with node MTTF
// in 100k–200k hours and hard error rate in 3e-14–3e-13. Together with
// drive MTTFs of 20k–200k hours this keeps every cell where today's exact
// chain agrees with the stable recurrences (worst relative error ~1.7e-3
// at ft 7); at the baseline's rates it does not.
func deepParams(r *rand.Rand) params.Parameters {
	p := params.Baseline()
	p.RedundancySetSize = 48
	p.NodeMTTFHours = 1.5e5 * (1 + (2*r.Float64()-1)/3)
	p.DriveMTTFHours = jitter(r, p.DriveMTTFHours, 0.5)
	p.HardErrorRate = 1e-13 * math.Pow(10, math.Log10(3)*(2*r.Float64()-1))
	return p
}

func deepSweep(p params.Parameters) sweepSpec {
	return sweepSpec{p: p, cfgs: deepConfigs, method: core.MethodExactChain, param: "drive_mttf_hours",
		values: geomValues(2e4, 2e5, 512)}
}

func deepWarm(seed int64) []job {
	r := rng(seed, streamWarm)
	return []job{sweepJob(deepSweep(deepParams(r)), false, -1), sweepJob(deepSweep(deepParams(r)), true, -1)}
}

func deepStream(seed int64) func() job {
	next := cycle(rng(seed, streamCold), deepParams)
	n := 0
	return func() job {
		p, b := next()
		n++
		return sweepJob(deepSweep(p), n%2 == 0, b)
	}
}

// stockParams jitters only the node and drive MTTF, as the plan request
// varies them.
func stockParams(r *rand.Rand) params.Parameters {
	p := params.Baseline()
	p.NodeMTTFHours = jitter(r, p.NodeMTTFHours, 0.5)
	p.DriveMTTFHours = jitter(r, p.DriveMTTFHours, 0.5)
	return p
}

func planWarm(seed int64) []job {
	return []job{planJob(planSpec{p: stockParams(rng(seed, streamWarm)), space: plan.DefaultSpace()}, -1)}
}

func planStream(seed int64) func() job {
	next := cycle(rng(seed, streamCold), stockParams)
	return func() job {
		p, b := next()
		return planJob(planSpec{p: p, space: plan.DefaultSpace()}, b)
	}
}

// ---- fleet-decade ----

func decadeJob(r *rand.Rand, ft int) job {
	return fleetJob(fleetSpec{p: params.Baseline(), cfg: core.Config{Internal: core.InternalNone, NodeFaultTolerance: ft},
		bricks: 250_000, years: 10, seed: r.Int63()}, -1)
}

func fleetWarm(seed int64) []job {
	return []job{decadeJob(rng(seed, streamWarm), 1)}
}

func fleetStream(seed int64) func() job {
	r := rng(seed, streamCold)
	n := 0
	return func() job {
		n++
		return decadeJob(r, 2-n%2)
	}
}
