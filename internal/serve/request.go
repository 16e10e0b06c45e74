package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/plan"
	"repro/internal/sim"
)

// ParamsPatch is the wire form of a parameter override: every field is a
// pointer so "absent" and "explicitly the default" are distinguishable.
// Absent fields keep the preset's value, so a request only spells what
// it changes — and two requests that reach the same resolved parameter
// set share one cache entry regardless of spelling.
type ParamsPatch struct {
	NodeMTTFHours            *float64 `json:"node_mttf_hours,omitempty"`
	DriveMTTFHours           *float64 `json:"drive_mttf_hours,omitempty"`
	HardErrorRate            *float64 `json:"hard_error_rate,omitempty"`
	DriveCapacityBytes       *float64 `json:"drive_capacity_bytes,omitempty"`
	NodeSetSize              *int     `json:"node_set_size,omitempty"`
	RedundancySetSize        *int     `json:"redundancy_set_size,omitempty"`
	DrivesPerNode            *int     `json:"drives_per_node,omitempty"`
	DriveMaxIOPS             *float64 `json:"drive_max_iops,omitempty"`
	DriveTransferBytesPerSec *float64 `json:"drive_transfer_bytes_per_sec,omitempty"`
	RestripeCommandBytes     *float64 `json:"restripe_command_bytes,omitempty"`
	RebuildCommandBytes      *float64 `json:"rebuild_command_bytes,omitempty"`
	LinkSpeedGbps            *float64 `json:"link_speed_gbps,omitempty"`
	EffectiveLinks           *float64 `json:"effective_links,omitempty"`
	CapacityUtilization      *float64 `json:"capacity_utilization,omitempty"`
	RebuildBandwidthFraction *float64 `json:"rebuild_bandwidth_fraction,omitempty"`
}

// apply overlays the patch's present fields onto p.
func (pp *ParamsPatch) apply(p *params.Parameters) {
	if pp == nil {
		return
	}
	setF := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	setI := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setF(&p.NodeMTTFHours, pp.NodeMTTFHours)
	setF(&p.DriveMTTFHours, pp.DriveMTTFHours)
	setF(&p.HardErrorRate, pp.HardErrorRate)
	setF(&p.DriveCapacityBytes, pp.DriveCapacityBytes)
	setI(&p.NodeSetSize, pp.NodeSetSize)
	setI(&p.RedundancySetSize, pp.RedundancySetSize)
	setI(&p.DrivesPerNode, pp.DrivesPerNode)
	setF(&p.DriveMaxIOPS, pp.DriveMaxIOPS)
	setF(&p.DriveTransferBytesPerSec, pp.DriveTransferBytesPerSec)
	setF(&p.RestripeCommandBytes, pp.RestripeCommandBytes)
	setF(&p.RebuildCommandBytes, pp.RebuildCommandBytes)
	setF(&p.LinkSpeedGbps, pp.LinkSpeedGbps)
	setF(&p.EffectiveLinks, pp.EffectiveLinks)
	setF(&p.CapacityUtilization, pp.CapacityUtilization)
	setF(&p.RebuildBandwidthFraction, pp.RebuildBandwidthFraction)
}

// resolveParams builds the effective parameter set from a preset name
// ("", "baseline" or "enterprise") and an optional patch, validating the
// result.
func resolveParams(preset string, patch *ParamsPatch) (params.Parameters, error) {
	var p params.Parameters
	switch preset {
	case "", "baseline":
		p = params.Baseline()
	case "enterprise":
		p = params.Enterprise()
	default:
		return params.Parameters{}, fmt.Errorf("unknown preset %q (valid: baseline, enterprise)", preset)
	}
	patch.apply(&p)
	if err := p.Validate(); err != nil {
		return params.Parameters{}, err
	}
	return p, nil
}

// maxFaultTolerance bounds the inter-node fault tolerance a request may
// name. A closed-form evaluation takes time and memory growing as 2^ft
// (one analyze at N=100, R=64 takes ~40 ms and ~40 MB at ft 20, so ft 30
// would need ~40 GB) and the exact chain has 2^(ft+1)−1 states, so an
// unbounded ft lets one request exhaust the server.
const maxFaultTolerance = 10

// ConfigSpec is the wire form of a redundancy configuration.
type ConfigSpec struct {
	// Internal is "none", "raid5" or "raid6".
	Internal string `json:"internal"`
	// FT is the inter-node fault tolerance (1 to maxFaultTolerance).
	FT int `json:"ft"`
}

// checkFaultTolerance rejects a fault tolerance above maxFaultTolerance.
func checkFaultTolerance(ft int) error {
	if ft > maxFaultTolerance {
		return fmt.Errorf("fault tolerance %d exceeds the limit of %d", ft, maxFaultTolerance)
	}
	return nil
}

// resolve maps the spec onto a validated core.Config.
func (cs ConfigSpec) resolve() (core.Config, error) {
	ir, err := core.ParseInternal(cs.Internal)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Internal: ir, NodeFaultTolerance: cs.FT}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	if err := checkFaultTolerance(cs.FT); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// resolveMethod maps the wire method name ("" = closed-form) onto a
// core.Method.
func resolveMethod(name string) (core.Method, error) {
	if name == "" {
		return core.MethodClosedForm, nil
	}
	return core.ParseMethod(name)
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Preset string       `json:"preset,omitempty"`
	Params *ParamsPatch `json:"params,omitempty"`
	Config ConfigSpec   `json:"config"`
	Method string       `json:"method,omitempty"`
}

// analyzeJob is the fully resolved, canonical form of an analyze
// request: presets and patches are flattened into the complete parameter
// set, so its JSON encoding is the cache key — two spellings of the same
// analysis share one entry.
type analyzeJob struct {
	Params params.Parameters
	Config core.Config
	Method core.Method
}

func (r AnalyzeRequest) resolve() (analyzeJob, error) {
	p, err := resolveParams(r.Preset, r.Params)
	if err != nil {
		return analyzeJob{}, err
	}
	cfg, err := r.Config.resolve()
	if err != nil {
		return analyzeJob{}, err
	}
	method, err := resolveMethod(r.Method)
	if err != nil {
		return analyzeJob{}, err
	}
	return analyzeJob{Params: p, Config: cfg, Method: method}, nil
}

// sweepKnobs maps wire parameter names onto setters for SweepRequest.
// Integer-valued knobs truncate; their values are validated by
// params.Validate after application.
var sweepKnobs = map[string]func(*params.Parameters, float64){
	"node_mttf_hours":            func(p *params.Parameters, x float64) { p.NodeMTTFHours = x },
	"drive_mttf_hours":           func(p *params.Parameters, x float64) { p.DriveMTTFHours = x },
	"hard_error_rate":            func(p *params.Parameters, x float64) { p.HardErrorRate = x },
	"drive_capacity_bytes":       func(p *params.Parameters, x float64) { p.DriveCapacityBytes = x },
	"node_set_size":              func(p *params.Parameters, x float64) { p.NodeSetSize = int(x) },
	"redundancy_set_size":        func(p *params.Parameters, x float64) { p.RedundancySetSize = int(x) },
	"drives_per_node":            func(p *params.Parameters, x float64) { p.DrivesPerNode = int(x) },
	"rebuild_command_bytes":      func(p *params.Parameters, x float64) { p.RebuildCommandBytes = x },
	"restripe_command_bytes":     func(p *params.Parameters, x float64) { p.RestripeCommandBytes = x },
	"link_speed_gbps":            func(p *params.Parameters, x float64) { p.LinkSpeedGbps = x },
	"effective_links":            func(p *params.Parameters, x float64) { p.EffectiveLinks = x },
	"capacity_utilization":       func(p *params.Parameters, x float64) { p.CapacityUtilization = x },
	"rebuild_bandwidth_fraction": func(p *params.Parameters, x float64) { p.RebuildBandwidthFraction = x },
}

// SweepParameterNames lists the valid SweepRequest.Parameter values.
func SweepParameterNames() []string {
	names := make([]string, 0, len(sweepKnobs))
	for n := range sweepKnobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SweepRequest is the body of POST /v1/sweep: analyze every config at
// every value of one swept parameter, everything else held at the
// resolved base.
type SweepRequest struct {
	Preset    string       `json:"preset,omitempty"`
	Params    *ParamsPatch `json:"params,omitempty"`
	Configs   []ConfigSpec `json:"configs"`
	Method    string       `json:"method,omitempty"`
	Parameter string       `json:"parameter"`
	Values    []float64    `json:"values"`
}

// sweepJob is the canonical resolved form of a sweep request.
type sweepJob struct {
	Params    params.Parameters
	Configs   []core.Config
	Method    core.Method
	Parameter string
	Values    []float64
}

func (r SweepRequest) resolve(maxGridCells int) (sweepJob, error) {
	p, err := resolveParams(r.Preset, r.Params)
	if err != nil {
		return sweepJob{}, err
	}
	if len(r.Configs) == 0 {
		return sweepJob{}, fmt.Errorf("sweep needs at least one config")
	}
	cfgs := make([]core.Config, len(r.Configs))
	for i, cs := range r.Configs {
		if cfgs[i], err = cs.resolve(); err != nil {
			return sweepJob{}, fmt.Errorf("configs[%d]: %w", i, err)
		}
	}
	method, err := resolveMethod(r.Method)
	if err != nil {
		return sweepJob{}, err
	}
	if _, ok := sweepKnobs[r.Parameter]; !ok {
		return sweepJob{}, fmt.Errorf("unknown sweep parameter %q (valid: %s)",
			r.Parameter, strings.Join(SweepParameterNames(), ", "))
	}
	if len(r.Values) == 0 {
		return sweepJob{}, fmt.Errorf("sweep needs at least one value")
	}
	if cells := len(r.Values) * len(r.Configs); cells > maxGridCells {
		return sweepJob{}, fmt.Errorf("sweep grid of %d cells (%d values × %d configs) exceeds the limit of %d",
			cells, len(r.Values), len(r.Configs), maxGridCells)
	}
	return sweepJob{Params: p, Configs: cfgs, Method: method, Parameter: r.Parameter, Values: r.Values}, nil
}

// SimulateRequest is the body of POST /v1/simulate: a Monte Carlo MTTDL
// estimate of one configuration by the deterministic parallel DES. The
// worker count is a server resource, not a request knob — the estimator
// is bit-identical at any worker count, which is what lets the response
// be cached at all.
type SimulateRequest struct {
	Preset string       `json:"preset,omitempty"`
	Params *ParamsPatch `json:"params,omitempty"`
	Config ConfigSpec   `json:"config"`
	// Seed is the base seed of the per-trial seed stream.
	Seed int64 `json:"seed"`
	// Trials is the mission count (>= 2).
	Trials int `json:"trials"`
	// MaxEventsPerTrial caps one mission's event count (0 = 10 million).
	MaxEventsPerTrial int `json:"max_events_per_trial,omitempty"`
	// Repair selects the repair-time distribution: "" or "exponential",
	// or "deterministic".
	Repair string `json:"repair,omitempty"`
	// Fleet switches the request to the fleet-scale estimator: one
	// mission horizon over many bricks with brick-class aggregation,
	// instead of Trials independent run-to-loss missions. Trials must be
	// absent (0) when Fleet is set.
	Fleet *FleetSpec `json:"fleet,omitempty"`
}

// FleetSpec is the fleet leg of a SimulateRequest.
type FleetSpec struct {
	// Bricks is the fleet size in storage nodes (rounded up to whole
	// node sets of NodeSetSize).
	Bricks int `json:"bricks"`
	// Years is the mission horizon in years.
	Years float64 `json:"years"`
	// Engine is accepted for compatibility and ignored: "", "calendar"
	// or "heap" (any other spelling is a 400). Every fleet runs on the
	// calendar queue, so the engine is excluded from the cache key.
	Engine string `json:"engine,omitempty"`
}

// fleetJob is the canonical resolved form of a fleet simulate request.
// The engine is deliberately not part of the job: it selects nothing, so
// every accepted spelling shares a cache entry.
type fleetJob struct {
	Scenario     sim.Scenario
	Bricks       int
	HorizonHours float64
	Seed         int64
}

// scenario resolves the request's parameters, configuration and repair
// distribution into the simulated system.
func (r SimulateRequest) scenario() (sim.Scenario, error) {
	p, err := resolveParams(r.Preset, r.Params)
	if err != nil {
		return sim.Scenario{}, err
	}
	cfg, err := r.Config.resolve()
	if err != nil {
		return sim.Scenario{}, err
	}
	var repair sim.RepairDistribution
	switch r.Repair {
	case "", "exponential":
		repair = sim.RepairExponential
	case "deterministic":
		repair = sim.RepairDeterministic
	default:
		return sim.Scenario{}, fmt.Errorf("unknown repair distribution %q (valid: exponential, deterministic)", r.Repair)
	}
	return sim.ScenarioFromConfig(p, cfg, repair)
}

func (r SimulateRequest) resolveFleet(maxBrickYears float64) (fleetJob, error) {
	if r.Trials != 0 || r.MaxEventsPerTrial != 0 {
		return fleetJob{}, fmt.Errorf("fleet simulate does not take trials or max_events_per_trial")
	}
	sc, err := r.scenario()
	if err != nil {
		return fleetJob{}, err
	}
	switch r.Fleet.Engine {
	case "", "calendar", "heap":
	default:
		return fleetJob{}, fmt.Errorf("unknown engine %q (valid: calendar, heap)", r.Fleet.Engine)
	}
	if r.Fleet.Bricks < 1 {
		return fleetJob{}, fmt.Errorf("fleet bricks %d must be at least 1", r.Fleet.Bricks)
	}
	if !(r.Fleet.Years > 0) {
		return fleetJob{}, fmt.Errorf("fleet years %v must be positive", r.Fleet.Years)
	}
	if by := float64(r.Fleet.Bricks) * r.Fleet.Years; by > maxBrickYears {
		return fleetJob{}, fmt.Errorf("fleet workload of %g brick-years (%d bricks × %g years) exceeds the limit of %g",
			by, r.Fleet.Bricks, r.Fleet.Years, maxBrickYears)
	}
	return fleetJob{
		Scenario:     sc,
		Bricks:       r.Fleet.Bricks,
		HorizonHours: r.Fleet.Years * params.HoursPerYear,
		Seed:         r.Seed,
	}, nil
}

// simulateJob is the canonical resolved form of a simulate request.
type simulateJob struct {
	Scenario sim.Scenario
	Seed     int64
	Trials   int
	MaxEvts  int
}

func (r SimulateRequest) resolve(maxTrials int) (simulateJob, error) {
	sc, err := r.scenario()
	if err != nil {
		return simulateJob{}, err
	}
	if r.Trials < 2 {
		return simulateJob{}, fmt.Errorf("trials %d must be at least 2", r.Trials)
	}
	if r.Trials > maxTrials {
		return simulateJob{}, fmt.Errorf("trials %d exceeds the limit of %d", r.Trials, maxTrials)
	}
	maxEvts := r.MaxEventsPerTrial
	if maxEvts == 0 {
		maxEvts = 10_000_000
	}
	if maxEvts < 1 {
		return simulateJob{}, fmt.Errorf("max_events_per_trial %d must be positive", r.MaxEventsPerTrial)
	}
	return simulateJob{Scenario: sc, Seed: r.Seed, Trials: r.Trials, MaxEvts: maxEvts}, nil
}

// PlanSpaceSpec is the wire form of a design-space override for POST
// /v1/plan. Every dimension is optional: an absent (or empty) slice
// keeps the stock plan.DefaultSpace values, so a request only spells
// the dimensions it narrows or extends.
type PlanSpaceSpec struct {
	// Internals lists internal redundancy schemes by wire name ("none",
	// "raid5", "raid6").
	Internals          []string  `json:"internals,omitempty"`
	FaultTolerances    []int     `json:"fault_tolerances,omitempty"`
	RedundancySetSizes []int     `json:"redundancy_set_sizes,omitempty"`
	SpareNodes         []int     `json:"spare_nodes,omitempty"`
	Utilizations       []float64 `json:"utilizations,omitempty"`
	RebuildBytes       []float64 `json:"rebuild_bytes,omitempty"`
}

// resolve overlays the spec onto the stock space. Dimension order is
// preserved as spelled: it fixes the optimizer's enumeration order and
// thus the deterministic tie-breaking identity of every candidate.
func (ps *PlanSpaceSpec) resolve() (plan.Space, error) {
	space := plan.DefaultSpace()
	if ps == nil {
		return space, nil
	}
	if len(ps.Internals) > 0 {
		irs := make([]core.InternalRedundancy, len(ps.Internals))
		for i, name := range ps.Internals {
			ir, err := core.ParseInternal(name)
			if err != nil {
				return plan.Space{}, fmt.Errorf("space.internals[%d]: %w", i, err)
			}
			irs[i] = ir
		}
		space.Internals = irs
	}
	if len(ps.FaultTolerances) > 0 {
		for i, ft := range ps.FaultTolerances {
			if err := checkFaultTolerance(ft); err != nil {
				return plan.Space{}, fmt.Errorf("space.fault_tolerances[%d]: %w", i, err)
			}
		}
		space.FaultTolerances = ps.FaultTolerances
	}
	if len(ps.RedundancySetSizes) > 0 {
		space.RedundancySetSizes = ps.RedundancySetSizes
	}
	if len(ps.SpareNodes) > 0 {
		space.SpareNodes = ps.SpareNodes
	}
	if len(ps.Utilizations) > 0 {
		space.Utilizations = ps.Utilizations
	}
	if len(ps.RebuildBytes) > 0 {
		space.RebuildBytes = ps.RebuildBytes
	}
	return space, nil
}

// PlanRequest is the body of POST /v1/plan: a two-phase design-space
// search (closed-form prune, batched exact confirmation) returning the
// exact Pareto frontier on (cost, capacity, reliability).
type PlanRequest struct {
	Preset string         `json:"preset,omitempty"`
	Params *ParamsPatch   `json:"params,omitempty"`
	Space  *PlanSpaceSpec `json:"space,omitempty"`
	// TargetEventsPerPBYear is the reliability target (0 = the paper's
	// 2e-3 events/PB-year).
	TargetEventsPerPBYear float64 `json:"target_events_per_pb_year,omitempty"`
	MaxCostDrives         float64 `json:"max_cost_drives,omitempty"`
	MinCapacityPB         float64 `json:"min_capacity_pb,omitempty"`
	NodeCostDrives        float64 `json:"node_cost_drives,omitempty"`
	// Top truncates the ranked frontier (0 = all).
	Top int `json:"top,omitempty"`
}

// planJob is the canonical resolved form of a plan request: the preset
// and patch flattened into the full parameter set, the space overlaid
// onto the stock one, and the default target made explicit — so every
// spelling of the same search shares one cache entry.
type planJob struct {
	Params params.Parameters
	Space  plan.Space
	Cons   plan.Constraints
	Top    int
}

func (r PlanRequest) resolve(maxCandidates int) (planJob, error) {
	p, err := resolveParams(r.Preset, r.Params)
	if err != nil {
		return planJob{}, err
	}
	space, err := r.Space.resolve()
	if err != nil {
		return planJob{}, err
	}
	if err := space.Validate(); err != nil {
		return planJob{}, err
	}
	if n := space.Size(); n > maxCandidates {
		return planJob{}, fmt.Errorf("design space of %d candidates exceeds the limit of %d", n, maxCandidates)
	}
	cons := plan.Constraints{
		TargetEventsPerPBYear: r.TargetEventsPerPBYear,
		MaxCostDrives:         r.MaxCostDrives,
		MinCapacityPB:         r.MinCapacityPB,
		NodeCostDrives:        r.NodeCostDrives,
	}
	if cons.TargetEventsPerPBYear == 0 {
		// Canonicalize the default so "absent" and "explicitly the
		// paper's target" share a cache key.
		cons.TargetEventsPerPBYear = core.PaperTarget().EventsPerPBYear
	}
	if err := cons.Validate(); err != nil {
		return planJob{}, err
	}
	if r.Top < 0 {
		return planJob{}, fmt.Errorf("top %d must be >= 0", r.Top)
	}
	return planJob{Params: p, Space: space, Cons: cons, Top: r.Top}, nil
}

// decodeRequest strictly decodes one JSON document into dst: unknown
// fields, trailing garbage and oversized bodies are errors, so malformed
// requests fail loudly instead of half-applying.
func decodeRequest(body io.Reader, maxBytes int64, dst any) error {
	dec := json.NewDecoder(io.LimitReader(body, maxBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	// A second Decode must see EOF; anything else is trailing content
	// (or a body past the size limit, truncated mid-document by the
	// limit reader and surfacing as a syntax error above).
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("invalid request body: trailing content after JSON document")
	}
	return nil
}

// canonicalKey builds the cache key for a resolved job: the endpoint
// name plus the job's JSON encoding. Jobs are flat structs of numbers
// and strings, so encoding/json is deterministic (fixed field order,
// shortest float representation) and equal jobs — however the request
// spelled them — produce equal keys.
func canonicalKey(endpoint string, job any) string {
	b, err := json.Marshal(job)
	if err != nil {
		// Jobs are marshalable by construction; this is unreachable.
		panic(fmt.Sprintf("serve: canonical key for %s: %v", endpoint, err))
	}
	return endpoint + ":" + string(b)
}
