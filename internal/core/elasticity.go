package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/params"
)

// Elasticity is the dimensionless local sensitivity of the reliability
// metric to one parameter:
//
//	E = d log(events/PB-year) / d log(θ)
//
// E = -3 for node MTTF means a 1% improvement in node MTTF buys ~3% fewer
// data-loss events — a quantitative version of the paper's Section 7
// sensitivity discussion.
type Elasticity struct {
	Parameter string
	Value     float64
}

// elasticityKnob names a parameter and how to scale it.
type elasticityKnob struct {
	name  string
	scale func(*params.Parameters, float64)
}

func elasticityKnobs() []elasticityKnob {
	return []elasticityKnob{
		{"node MTTF", func(p *params.Parameters, f float64) { p.NodeMTTFHours *= f }},
		{"drive MTTF", func(p *params.Parameters, f float64) { p.DriveMTTFHours *= f }},
		{"hard error rate", func(p *params.Parameters, f float64) { p.HardErrorRate *= f }},
		{"drive capacity", func(p *params.Parameters, f float64) { p.DriveCapacityBytes *= f }},
		{"rebuild block size", func(p *params.Parameters, f float64) { p.RebuildCommandBytes *= f }},
		{"link speed", func(p *params.Parameters, f float64) { p.LinkSpeedGbps *= f }},
		{"rebuild bandwidth share", func(p *params.Parameters, f float64) { p.RebuildBandwidthFraction *= f }},
	}
}

// Elasticities computes central-difference log-log sensitivities of
// events/PB-year to each continuously scalable parameter, holding the
// configuration fixed. step is the relative perturbation (0 selects 1%).
// The base analysis and the two perturbed analyses per knob all carry
// ctx, so a traced call attributes every solve to the caller's span;
// the knobs fan out on a pool of workers goroutines (0 =
// runtime.NumCPU()) and the context is polled between knobs, so a
// cancelled call stops within two analyses and returns ctx.Err().
func Elasticities(ctx context.Context, p params.Parameters, cfg Config, method Method, step float64, workers int) ([]Elasticity, error) {
	if step == 0 {
		step = 0.01
	}
	if step <= 0 || step >= 0.5 {
		return nil, fmt.Errorf("core: elasticity step %v out of (0, 0.5)", step)
	}
	base, err := AnalyzeCtx(ctx, p, cfg, method)
	if err != nil {
		return nil, err
	}
	if base.EventsPerPBYear <= 0 {
		return nil, fmt.Errorf("core: non-positive base metric")
	}
	// Each knob needs two independent analyses; fan the knobs across the
	// worker pool (order-preserving, first-error by knob index).
	knobs := elasticityKnobs()
	out := make([]Elasticity, len(knobs))
	err = RunIndexed(ctx, len(knobs), workers, func(i int) error {
		knob := knobs[i]
		up := p
		knob.scale(&up, 1+step)
		down := p
		knob.scale(&down, 1-step)
		rUp, err := AnalyzeCtx(ctx, up, cfg, method)
		if err != nil {
			return fmt.Errorf("core: elasticity of %s (+): %w", knob.name, err)
		}
		rDown, err := AnalyzeCtx(ctx, down, cfg, method)
		if err != nil {
			return fmt.Errorf("core: elasticity of %s (-): %w", knob.name, err)
		}
		e := (math.Log(rUp.EventsPerPBYear) - math.Log(rDown.EventsPerPBYear)) /
			(math.Log(1+step) - math.Log(1-step))
		out[i] = Elasticity{Parameter: knob.name, Value: e}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
