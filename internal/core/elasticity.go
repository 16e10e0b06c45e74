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
// The base analysis and the two perturbed analyses per knob share the
// configuration, so they run as one engine chunk on the calling
// goroutine: a traced exact-chain call opens one "markov.batch" span
// with cells=15 under the caller's span. The context is polled before
// each analysis, so a cancelled call returns ctx.Err().
func Elasticities(ctx context.Context, p params.Parameters, cfg Config, method Method, step float64) ([]Elasticity, error) {
	out, _, err := elasticities(ctx, p, cfg, method, step)
	return out, err
}

// elasticities is Elasticities that also returns the stencil's base
// analysis, row 0, so a caller that needs the base result too does not
// analyze it again. A failing base is reported with its error unwrapped.
func elasticities(ctx context.Context, p params.Parameters, cfg Config, method Method, step float64) ([]Elasticity, Result, error) {
	if step == 0 {
		step = 0.01
	}
	if step <= 0 || step >= 0.5 {
		return nil, Result{}, fmt.Errorf("core: elasticity step %v out of (0, 0.5)", step)
	}
	// Row 0 is the base; rows 2i+1 and 2i+2 scale knob i up and down.
	knobs := elasticityKnobs()
	sign := [2]string{"-", "+"}
	res := make([]Result, 1+2*len(knobs))
	row, _, err := AnalyzeRanges(ctx, method, []CellRange{{Cfg: cfg, Hi: len(res)}}, 1,
		func(row, _ int, q *params.Parameters) {
			*q = p
			switch {
			case row == 0:
			case row%2 == 1:
				knobs[(row-1)/2].scale(q, 1+step)
			default:
				knobs[(row-1)/2].scale(q, 1-step)
			}
		},
		func(_ CellRange, r []Result) { copy(res, r) })
	if err != nil {
		if row > 0 {
			err = fmt.Errorf("core: elasticity of %s (%s): %w", knobs[(row-1)/2].name, sign[row%2], err)
		}
		return nil, Result{}, err
	}
	if res[0].EventsPerPBYear <= 0 {
		return nil, Result{}, fmt.Errorf("core: non-positive base metric")
	}
	out := make([]Elasticity, len(knobs))
	for i, knob := range knobs {
		e := (math.Log(res[2*i+1].EventsPerPBYear) - math.Log(res[2*i+2].EventsPerPBYear)) /
			(math.Log(1+step) - math.Log(1-step))
		out[i] = Elasticity{Parameter: knob.name, Value: e}
	}
	return out, res[0], nil
}
