package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// MissionResult reports transient (finite-horizon) reliability — the
// quantity the paper's fleet target is really about: "100 systems × 5
// years with less than one loss event".
type MissionResult struct {
	Config Config
	// Hours is the mission length.
	Hours float64
	// LossProbability is P(data loss within the mission) for one system,
	// computed from the exact chain by uniformization.
	LossProbability float64
	// ExponentialApprox is 1 - exp(-T/MTTDL), the memoryless
	// approximation implicit in the paper's events-per-PB-year metric,
	// evaluated as -expm1(-T/MTTDL) so it keeps its digits where
	// T/MTTDL is tiny.
	ExponentialApprox float64
	// FleetLossProbability is P(at least one loss among FleetSize
	// independent systems), 1 - (1-p)^n evaluated as
	// -expm1(n·log1p(-p)), which does not cancel to 0 when p is below
	// the float64 epsilon.
	FleetSize            int
	FleetLossProbability float64
}

// MissionSurvival solves the configuration's exact chain for the
// probability of surviving a mission of the given hours, and the fleet
// version for fleetSize independent systems. The context reaches both
// solves: under an active span (obs.StartSpan) they are attributed as
// its children and their metrics land on the span's registry, and a
// cancelled context returns ctx.Err().
func MissionSurvival(ctx context.Context, p params.Parameters, cfg Config, hours float64, fleetSize int) (MissionResult, error) {
	if hours <= 0 {
		return MissionResult{}, fmt.Errorf("core: mission hours %v must be positive", hours)
	}
	if fleetSize < 1 {
		return MissionResult{}, fmt.Errorf("core: fleet size %d must be >= 1", fleetSize)
	}
	if err := p.Validate(); err != nil {
		return MissionResult{}, err
	}
	if err := cfg.Validate(); err != nil {
		return MissionResult{}, err
	}
	chain, err := Chain(p, cfg)
	if err != nil {
		return MissionResult{}, err
	}
	loss, err := markov.AbsorbedProbabilityByTime(ctx, chain, hours, markov.TransientOptions{})
	if err != nil {
		if ctx.Err() != nil {
			return MissionResult{}, ctx.Err()
		}
		return MissionResult{}, fmt.Errorf("core: mission transient for %v: %w", cfg, err)
	}
	mttdl, err := markov.MTTA(ctx, chain)
	if err != nil {
		return MissionResult{}, err
	}
	return MissionResult{
		Config:               cfg,
		Hours:                hours,
		LossProbability:      loss,
		ExponentialApprox:    -math.Expm1(-hours / mttdl),
		FleetSize:            fleetSize,
		FleetLossProbability: -math.Expm1(float64(fleetSize) * math.Log1p(-loss)),
	}, nil
}

// Chain builds the exact chain for a configuration from the inputs
// AnalyzeCtx solves, after the same parameter, configuration and
// geometry checks (the model constructors panic on a fault tolerance
// the redundancy set cannot hold). The exposure and mission paths and
// the chain-inspecting CLIs all build through it. It has no context, so
// its rate computation records no telemetry.
func Chain(p params.Parameters, cfg Config) (*markov.Chain, error) {
	var (
		pr analysisPrep
		tl rebuild.Tally
	)
	if err := analyzePrep(&pr, &p, cfg, &tl); err != nil {
		return nil, err
	}
	if cfg.Internal == InternalNone {
		return model.NIRChain(pr.nir, pr.k), nil
	}
	return model.IRChain(pr.ir, pr.k), nil
}
