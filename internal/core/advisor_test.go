package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/params"
)

func adviceByName(t *testing.T, advice []Advice) map[string]Advice {
	t.Helper()
	out := make(map[string]Advice, len(advice))
	for _, a := range advice {
		out[a.Parameter] = a
	}
	return out
}

// FT2 without internal RAID misses the paper target by ~1.65×; the advisor
// must find single-parameter fixes that, applied, exactly hit the target.
func TestAdviseFixesMarginalConfig(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	target := PaperTarget()
	advice, err := Advise(context.Background(), p, cfg, target, MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	byName := adviceByName(t, advice)

	checks := []struct {
		param string
		apply func(*params.Parameters, float64)
		min   float64 // required factor should exceed 1 (improvement)
	}{
		{"node MTTF", func(q *params.Parameters, f float64) { q.NodeMTTFHours *= f }, 1},
		{"drive MTTF", func(q *params.Parameters, f float64) { q.DriveMTTFHours *= f }, 1},
		{"rebuild block size", func(q *params.Parameters, f float64) { q.RebuildCommandBytes *= f }, 1},
	}
	for _, c := range checks {
		a, ok := byName[c.param]
		if !ok {
			t.Fatalf("missing advice for %q", c.param)
		}
		if !a.Achievable {
			t.Errorf("%s: not achievable, expected a fix", c.param)
			continue
		}
		if a.RequiredFactor <= c.min {
			t.Errorf("%s: factor %v, want > %v (improvement needed)", c.param, a.RequiredFactor, c.min)
		}
		// Applying the recommended factor must land within 1% of the
		// target.
		q := p
		c.apply(&q, a.RequiredFactor)
		r, err := Analyze(q, cfg, MethodClosedForm)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.EventsPerPBYear-target.EventsPerPBYear)/target.EventsPerPBYear > 0.01 {
			t.Errorf("%s: applying factor %v gives %.4g, want %.4g",
				c.param, a.RequiredFactor, r.EventsPerPBYear, target.EventsPerPBYear)
		}
	}
}

// HER must move DOWN (factor < 1) to fix a failing configuration.
func TestAdviseHERDirection(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	advice, err := Advise(context.Background(), p, cfg, PaperTarget(), MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	a := adviceByName(t, advice)["hard error rate"]
	if a.Achievable && a.RequiredFactor >= 1 {
		t.Errorf("HER factor = %v, want < 1", a.RequiredFactor)
	}
}

// For a configuration already beating the target by 361×, the advice
// describes allowed degradation: factors < 1 for MTTFs.
func TestAdviseHeadroomForPassingConfig(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalRAID5, NodeFaultTolerance: 2}
	advice, err := Advise(context.Background(), p, cfg, PaperTarget(), MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	a := adviceByName(t, advice)["node MTTF"]
	if !a.Achievable {
		t.Fatal("node MTTF headroom not found")
	}
	if a.RequiredFactor >= 1 {
		t.Errorf("headroom factor = %v, want < 1 (how far MTTF may degrade)", a.RequiredFactor)
	}
	// 361× margin with elasticity ≈ -2.6: headroom ≈ 361^(-1/2.6) ≈ 0.10.
	if a.RequiredFactor < 0.05 || a.RequiredFactor > 0.3 {
		t.Errorf("headroom factor = %v, want ≈0.1", a.RequiredFactor)
	}
}

// Link speed has zero local elasticity at baseline (disk-limited): no
// single-parameter fix should be offered upward... but slowing links far
// enough does eventually hurt, so degradation headroom may exist. The
// zero-elasticity knob must simply not be marked with a bogus factor of 1.
func TestAdviseZeroElasticityKnob(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	advice, err := Advise(context.Background(), p, cfg, PaperTarget(), MethodClosedForm)
	if err != nil {
		t.Fatal(err)
	}
	a := adviceByName(t, advice)["link speed"]
	if a.Achievable {
		t.Errorf("link speed advice = %+v; zero-elasticity knob should not be actionable", a)
	}
}

func TestAdviseInvalidInputs(t *testing.T) {
	p := params.Baseline()
	p.NodeMTTFHours = 0
	if _, err := Advise(context.Background(), p, Config{Internal: InternalNone, NodeFaultTolerance: 2}, PaperTarget(), MethodClosedForm); err == nil {
		t.Error("invalid params accepted")
	}
}

// Advise analyzes its base parameters once, as row 0 of the elasticity
// stencil: one call's analyses (rebuild.computes counts one per
// analysis) are the stencil's cells plus the bisection steps, and its
// advice is bit-identical to advice composed from a separate base
// analysis, Elasticities and the bisections.
func TestAdviseAnalyzesBaseOnce(t *testing.T) {
	p := params.Baseline()
	cfg := Config{Internal: InternalNone, NodeFaultTolerance: 2}
	target := PaperTarget()
	knobs := elasticityKnobs()
	stencil := int64(1 + 2*len(knobs))
	for _, method := range []Method{MethodClosedForm, MethodExactChain} {
		reg := obs.NewRegistry()
		ctx, end := meteredCtx(reg)
		advice, err := Advise(ctx, p, cfg, target, method)
		end()
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}

		base, err := Analyze(p, cfg, method)
		if err != nil {
			t.Fatal(err)
		}
		els, err := Elasticities(context.Background(), p, cfg, method, 0)
		if err != nil {
			t.Fatal(err)
		}
		bisect := obs.NewRegistry()
		bctx, bend := meteredCtx(bisect)
		for i, knob := range knobs {
			want := Advice{Parameter: knob.name, Elasticity: els[i].Value}
			if math.Abs(want.Elasticity) > 1e-9 {
				want.RequiredFactor, want.Achievable = solveFactor(bctx, p, cfg, target, method, knob.scale, base.EventsPerPBYear)
			}
			if advice[i] != want {
				t.Errorf("%v: advice %+v, composed reference %+v", method, advice[i], want)
			}
		}
		bend()
		steps := bisect.Counter("rebuild.computes").Value()
		if got := reg.Counter("rebuild.computes").Value(); got != stencil+steps {
			t.Errorf("%v: Advise ran %d analyses, want %d: the %d-cell stencil, base included, and %d bisection steps",
				method, got, stencil+steps, stencil, steps)
		}
	}
}
