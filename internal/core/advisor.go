package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/params"
)

// Advice says how far one parameter must move, alone, for a configuration
// to exactly hit a reliability target.
type Advice struct {
	// Parameter names the knob (matches Elasticity.Parameter).
	Parameter string
	// Elasticity is the local d log(events)/d log(θ).
	Elasticity float64
	// RequiredFactor is the multiplier on the parameter that brings
	// events/PB-year to the target, found by bisection on the actual
	// model (not the local approximation). Meaningful only if Achievable.
	RequiredFactor float64
	// Achievable reports whether the target is reachable by moving this
	// parameter alone within a factor of 20 in either direction while
	// keeping the parameter set valid.
	Achievable bool
}

// Advise evaluates, for each tunable parameter, the single-parameter
// change that would bring the configuration exactly to the target. For
// configurations already meeting the target, the factors describe how far
// each parameter could degrade before the target is lost. Every analysis
// carries ctx, and the context is polled before every analysis and
// between bisection steps, so a cancelled call returns ctx.Err().
func Advise(ctx context.Context, p params.Parameters, cfg Config, target Target, method Method) ([]Advice, error) {
	// The bisections start from the stencil's base row, so the base is
	// analyzed once.
	els, base, err := elasticities(ctx, p, cfg, method, 0)
	if err != nil {
		return nil, err
	}
	knobs := elasticityKnobs()
	if len(knobs) != len(els) {
		return nil, fmt.Errorf("core: knob/elasticity mismatch")
	}
	out := make([]Advice, 0, len(knobs))
	for i, knob := range knobs {
		adv := Advice{Parameter: knob.name, Elasticity: els[i].Value}
		if math.Abs(adv.Elasticity) > 1e-9 {
			factor, ok := solveFactor(ctx, p, cfg, target, method, knob.scale, base.EventsPerPBYear)
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			adv.RequiredFactor, adv.Achievable = factor, ok
		}
		out = append(out, adv)
	}
	return out, nil
}

// solveFactor bisects on log-factor for events(f·θ) = target. Returns the
// factor and whether a bracketing was found within [1/20, 20]. ctx is
// polled before every evaluation; a cancelled search reports no
// bracketing, and the caller surfaces ctx.Err().
func solveFactor(ctx context.Context, p params.Parameters, cfg Config, target Target, method Method, scale func(*params.Parameters, float64), baseEvents float64) (float64, bool) {
	eval := func(f float64) (float64, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		q := p
		scale(&q, f)
		r, err := AnalyzeCtx(ctx, q, cfg, method)
		if err != nil {
			return 0, false
		}
		return r.EventsPerPBYear, true
	}
	goal := target.EventsPerPBYear
	if baseEvents == goal {
		return 1, true
	}
	// Find a bracketing endpoint on the side that moves events toward the
	// goal.
	const limit = 20.0
	lo, hi := 1.0, 1.0
	loV := baseEvents
	for _, dir := range []bool{true, false} {
		f := 1.0
		prev := baseEvents
		ok := true
		for step := 0; step < 12 && ok; step++ {
			if dir {
				f *= 1.5
			} else {
				f /= 1.5
			}
			if f > limit || f < 1/limit {
				ok = false
				break
			}
			v, valid := eval(f)
			if !valid {
				ok = false
				break
			}
			if (prev-goal)*(v-goal) <= 0 {
				// Bracketed between the previous point and f.
				if dir {
					lo, hi, loV = f/1.5, f, prev
				} else {
					lo, hi, loV = f, f*1.5, v
				}
				goto bracketed
			}
			prev = v
		}
	}
	return 0, false

bracketed:
	for iter := 0; iter < 80; iter++ {
		mid := math.Sqrt(lo * hi)
		v, valid := eval(mid)
		if !valid {
			return 0, false
		}
		if (loV-goal)*(v-goal) <= 0 {
			hi = mid
		} else {
			lo, loV = mid, v
		}
		if hi/lo < 1+1e-10 {
			break
		}
	}
	return math.Sqrt(lo * hi), true
}
