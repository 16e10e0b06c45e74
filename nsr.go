// Package nsr (networked storage reliability) is the public API of this
// reproduction of "Reliability for Networked Storage Nodes" (Rao, Hafner,
// Golding; IBM Research / DSN 2006).
//
// The paper models a distributed storage system built from unreliable
// bricks — N sealed nodes of d drives each — protected by an erasure code
// of fault tolerance t across nodes and optionally RAID 5/6 inside each
// node. Continuous-time Markov chains with absorbing states yield the mean
// time to data loss (MTTDL), reported as data-loss events per
// petabyte-year against a reliability target of 2×10⁻³.
//
// Quick start:
//
//	p := nsr.Baseline()
//	r, err := nsr.Analyze(p, nsr.Config{
//		Internal:           nsr.InternalRAID5,
//		NodeFaultTolerance: 2,
//	}, nsr.MethodClosedForm)
//	if err != nil { ... }
//	fmt.Printf("%.3g events/PB-year\n", r.EventsPerPBYear)
//
// The facade re-exports the analysis engine (internal/core), the paper's
// parameter set (internal/params) and the figure regenerators
// (internal/experiments). Deeper layers — the CTMC solver, the closed
// forms, the chain builders, the rebuild model, the erasure code, the
// brick store and the simulators — live in the internal packages and are
// exercised by the cmd tools and examples.
package nsr

import (
	"context"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/params"
)

// Parameters is the paper's Section 6 parameter set.
type Parameters = params.Parameters

// Config identifies a redundancy configuration.
type Config = core.Config

// InternalRedundancy selects the in-node redundancy scheme.
type InternalRedundancy = core.InternalRedundancy

// Internal redundancy schemes.
const (
	InternalNone  = core.InternalNone
	InternalRAID5 = core.InternalRAID5
	InternalRAID6 = core.InternalRAID6
)

// Method selects the solution technique.
type Method = core.Method

// Solution methods.
const (
	// MethodClosedForm evaluates the paper's printed approximations.
	MethodClosedForm = core.MethodClosedForm
	// MethodExactChain solves the underlying Markov chains exactly.
	MethodExactChain = core.MethodExactChain
	// MethodExactStable evaluates the exact solutions via
	// cancellation-free recurrences — numerically robust to deep fault
	// tolerance.
	MethodExactStable = core.MethodExactStable
)

// Result is a reliability analysis outcome.
type Result = core.Result

// Target is a reliability goal in events per PB-year.
type Target = core.Target

// Table is a regenerated paper figure.
type Table = experiments.Table

// Baseline returns the paper's baseline parameters: 64 nodes × 12 drives
// of 300 GB, MTTF 400k/300k hours, 10 Gb/s links, 128 KiB rebuild commands.
func Baseline() Parameters { return params.Baseline() }

// Analyze computes MTTDL and events per PB-year for one configuration.
func Analyze(p Parameters, cfg Config, m Method) (Result, error) {
	return core.Analyze(p, cfg, m)
}

// AnalyzeAll analyzes several configurations in order.
func AnalyzeAll(p Parameters, cfgs []Config, m Method) ([]Result, error) {
	return core.AnalyzeAll(context.Background(), p, cfgs, m, 0)
}

// BaselineConfigs returns the paper's nine Figure 13 configurations.
func BaselineConfigs() []Config { return core.BaselineConfigs() }

// SensitivityConfigs returns the three Section 7 configurations.
func SensitivityConfigs() []Config { return core.SensitivityConfigs() }

// PaperTarget returns the paper's 2×10⁻³ events/PB-year goal.
func PaperTarget() Target { return core.PaperTarget() }

// AllFigures regenerates every evaluation figure at the given parameters.
func AllFigures(p Parameters) ([]*Table, error) { return experiments.All(context.Background(), p, 0) }

// Ablations regenerates the extension studies (model-assumption DES
// comparison, elasticities, rebuild bottleneck, scrubbing, mission
// reliability, spares plan). trials sizes the simulation table.
func Ablations(p Parameters, trials int, seed int64) ([]*Table, error) {
	return experiments.Ablations(context.Background(), p, trials, seed, 0)
}

// DegradedExposure is a configuration's degraded-mode lifetime profile.
type DegradedExposure = core.DegradedExposure

// Exposure computes the expected fraction of pre-loss lifetime spent at
// each failure depth, from the exact chain.
func Exposure(p Parameters, cfg Config) (DegradedExposure, error) {
	return core.Exposure(p, cfg)
}

// Elasticity is a log-log parameter sensitivity of events/PB-year.
type Elasticity = core.Elasticity

// Elasticities computes d log(events)/d log(θ) for every tunable
// parameter. step is the relative perturbation (0 selects 1%).
func Elasticities(p Parameters, cfg Config, m Method, step float64) ([]Elasticity, error) {
	return core.Elasticities(context.Background(), p, cfg, m, step)
}

// Advice is a single-parameter path to (or headroom against) a target.
type Advice = core.Advice

// Advise finds, for each tunable parameter, the factor by which it alone
// must change to put the configuration exactly on the target.
func Advise(p Parameters, cfg Config, target Target, m Method) ([]Advice, error) {
	return core.Advise(context.Background(), p, cfg, target, m)
}

// MissionResult is a finite-horizon reliability computation.
type MissionResult = core.MissionResult

// MissionSurvival computes the probability of data loss within a mission
// for one system and a fleet, from the exact chain's transient solution.
func MissionSurvival(p Parameters, cfg Config, hours float64, fleetSize int) (MissionResult, error) {
	return core.MissionSurvival(context.Background(), p, cfg, hours, fleetSize)
}
