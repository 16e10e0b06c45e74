package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/plan"
	"repro/internal/serve"
)

// Output checks. Every response is checked after its measurement window
// closes:
//
//   - closed-form analyze values equal a direct core.Analyze call;
//   - exact-chain analyze and sweep values agree with
//     core.MethodExactStable within the workload's tolerance;
//   - NDJSON rows spliced into the buffered envelope byte-equal the
//     buffered body of the same request;
//   - plan stats partition the space and the whole body equals a direct
//     plan.SearchCtx call;
//   - fleet results are internally consistent and their loss count is
//     Poisson-plausible under the exact chain's MTTA; at ft 1 with ten or
//     more losses the per-set MTTDL is within fleetStderrs standard errors
//     of the chain MTTA;
//   - a reused request gets byte-identical responses every time.

// fleetStderrs is the number of standard errors the observed fleet MTTDL
// (and loss count) may sit from the chain's prediction. Loss counts are
// Poisson (z-scores over 300 seeds of the mix's 10k-brick fleets have
// standard deviation 1.00), and a serve-mix run checks thousands of
// fleets, so the bound sits at 6σ: a false failure is ~1e-9 per fleet.
const fleetStderrs = 6

// sweepSetters applies the sweep parameters the generators use, as the
// server's sweep knobs do.
var sweepSetters = map[string]func(*params.Parameters, float64){
	"drive_mttf_hours": func(p *params.Parameters, x float64) { p.DriveMTTFHours = x },
	"node_mttf_hours":  func(p *params.Parameters, x float64) { p.NodeMTTFHours = x },
	"hard_error_rate":  func(p *params.Parameters, x float64) { p.HardErrorRate = x },
}

type checker struct {
	w  *workload
	h  http.Handler
	sp *spool
	// worstRel is the largest relative deviation of an exact-chain value
	// from the stable reference seen so far.
	worstRel float64
	// planDirect sums the wall time of direct plan.SearchCtx calls.
	planDirect      time.Duration
	planDirectCalls int
	// byClass collects the checked timed requests' latencies per class.
	byClass map[string][]float64
}

func newChecker(w *workload, h http.Handler, sp *spool) *checker {
	return &checker{w: w, h: h, sp: sp, byClass: map[string][]float64{}}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// check verifies one served response.
func (c *checker) check(j job, r record) error {
	if r.status != http.StatusOK {
		body, _ := c.sp.get(r.off)
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(body))
	}
	body, err := c.sp.get(r.off)
	if err != nil {
		return err
	}
	if maphash.Bytes(c.sp.seed, body) != r.hash {
		return fmt.Errorf("response differs from an earlier response to the same request")
	}
	if r.off < 0 {
		return nil // a repeat: its first response is checked in full
	}
	switch s := j.spec.(type) {
	case analyzeSpec:
		return c.checkAnalyze(s, body)
	case sweepSpec:
		if j.ndjson {
			return c.checkStream(j, s, body)
		}
		var resp serve.SweepResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode sweep: %w", err)
		}
		return c.checkSweep(s, resp)
	case planSpec:
		return c.checkPlan(s, body)
	case fleetSpec:
		return c.checkFleet(s, body)
	}
	return fmt.Errorf("unknown job spec %T", j.spec)
}

// reference returns the value a response must match: a direct closed-form
// evaluation for closed-form requests, the stable recurrences otherwise.
func reference(p params.Parameters, cfg core.Config, m core.Method) (core.Result, error) {
	if m == core.MethodExactChain {
		m = core.MethodExactStable
	}
	return core.Analyze(p, cfg, m)
}

func (c *checker) compare(got, want float64, m core.Method, what string) error {
	if m == core.MethodClosedForm {
		if got != want {
			return fmt.Errorf("%s = %v, direct closed form %v", what, got, want)
		}
		return nil
	}
	d := relDiff(got, want)
	if d > c.worstRel {
		c.worstRel = d
	}
	if !(d <= c.w.tolExact) {
		return fmt.Errorf("%s = %v, exact-stable %v: relative error %.3g above %.3g", what, got, want, d, c.w.tolExact)
	}
	return nil
}

func (c *checker) checkAnalyze(s analyzeSpec, body []byte) error {
	var resp serve.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode analyze: %w", err)
	}
	if resp.Configuration != s.cfg.String() || resp.Method != s.method.String() {
		return fmt.Errorf("analyze answered %s/%s for %s/%s", resp.Configuration, resp.Method, s.cfg, s.method)
	}
	want, err := reference(s.p, s.cfg, s.method)
	if err != nil {
		return fmt.Errorf("reference analyze: %w", err)
	}
	if err := c.compare(resp.MTTDLHours, want.MTTDLHours, s.method, "mttdl_hours"); err != nil {
		return err
	}
	return c.compare(resp.EventsPerPBYear, want.EventsPerPBYear, s.method, "events_per_pb_year")
}

func (c *checker) checkSweep(s sweepSpec, resp serve.SweepResponse) error {
	if resp.Parameter != s.param || resp.Method != s.method.String() || len(resp.Points) != len(s.values) {
		return fmt.Errorf("sweep answered %s/%s with %d points for %s/%s with %d values",
			resp.Parameter, resp.Method, len(resp.Points), s.param, s.method, len(s.values))
	}
	set := sweepSetters[s.param]
	for i, pt := range resp.Points {
		if pt.X != s.values[i] || len(pt.Results) != len(s.cfgs) {
			return fmt.Errorf("sweep point %d: x %v with %d results, want x %v with %d", i, pt.X, len(pt.Results), s.values[i], len(s.cfgs))
		}
		p := s.p
		set(&p, pt.X)
		for k, cfg := range s.cfgs {
			res := pt.Results[k]
			if res.Configuration != cfg.String() {
				return fmt.Errorf("sweep point %d result %d is %s, want %s", i, k, res.Configuration, cfg)
			}
			want, err := reference(p, cfg, s.method)
			if err != nil {
				return fmt.Errorf("reference sweep cell: %w", err)
			}
			what := fmt.Sprintf("sweep x=%v %s", pt.X, cfg)
			if err := c.compare(res.MTTDLHours, want.MTTDLHours, s.method, what+" mttdl_hours"); err != nil {
				return err
			}
			if err := c.compare(res.EventsPerPBYear, want.EventsPerPBYear, s.method, what+" events_per_pb_year"); err != nil {
				return err
			}
		}
	}
	return nil
}

// splitStream parses an NDJSON sweep body into its header, its point rows
// (raw bytes) and its trailer.
func splitStream(body []byte) (hdr struct {
	Parameter string `json:"parameter"`
	Method    string `json:"method"`
	Points    int    `json:"points"`
}, rows [][]byte, err error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
	if len(lines) < 2 {
		return hdr, nil, fmt.Errorf("stream of %d lines", len(lines))
	}
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("stream header: %w", err)
	}
	var tr struct {
		Done   bool   `json:"done"`
		Points int    `json:"points"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		return hdr, nil, fmt.Errorf("stream trailer: %w", err)
	}
	rows = lines[1 : len(lines)-1]
	if !tr.Done || tr.Points != len(rows) || hdr.Points != len(rows) {
		return hdr, nil, fmt.Errorf("stream trailer %+v after %d rows (header said %d)", tr, len(rows), hdr.Points)
	}
	return hdr, rows, nil
}

// splice assembles streamed rows into the buffered response envelope.
func splice(parameter, method string, rows [][]byte) []byte {
	var b bytes.Buffer
	b.WriteString(`{"parameter":`)
	b.Write(mustJSON(parameter))
	b.WriteString(`,"method":`)
	b.Write(mustJSON(method))
	b.WriteString(`,"points":[`)
	b.Write(bytes.Join(rows, []byte{','}))
	b.WriteString(`]}`)
	return b.Bytes()
}

func (c *checker) checkStream(j job, s sweepSpec, body []byte) error {
	hdr, rows, err := splitStream(body)
	if err != nil {
		return err
	}
	spliced := splice(hdr.Parameter, hdr.Method, rows)
	buffered, err := c.bufferedBody(j)
	if err != nil {
		return err
	}
	if !bytes.Equal(spliced, buffered) {
		return fmt.Errorf("NDJSON rows spliced into the envelope differ from the buffered body")
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(spliced, &resp); err != nil {
		return fmt.Errorf("decode spliced stream: %w", err)
	}
	return c.checkSweep(s, resp)
}

// bufferedBody returns the buffered response to j's request: the one
// served during the run when there is one, otherwise a fresh request.
func (c *checker) bufferedBody(j job) ([]byte, error) {
	if j.ident >= 0 {
		if off, ok := c.sp.firstOf(j, false); ok {
			return c.sp.get(off)
		}
	}
	b := j
	b.ndjson = false
	rec := &recorder{hdr: http.Header{}}
	rec.reset(false)
	c.h.ServeHTTP(rec, newRequest(b, "check"))
	if rec.status != http.StatusOK {
		return nil, fmt.Errorf("buffered counterpart: status %d: %s", rec.status, rec.body)
	}
	return rec.body, nil
}

func (c *checker) checkPlan(s planSpec, body []byte) error {
	var res plan.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decode plan: %w", err)
	}
	st := res.Stats
	if st.Infeasible+st.PrunedTarget+st.PrunedDominated+st.Confirmed != st.Enumerated || st.Enumerated != s.space.Size() {
		return fmt.Errorf("plan stats do not partition the %d-candidate space: %+v", s.space.Size(), st)
	}
	start := time.Now()
	direct, err := plan.SearchCtx(context.Background(), s.p, s.space,
		plan.Constraints{TargetEventsPerPBYear: core.PaperTarget().EventsPerPBYear}, plan.Options{})
	c.planDirect += time.Since(start)
	c.planDirectCalls++
	if err != nil {
		return fmt.Errorf("direct plan search: %w", err)
	}
	if !bytes.Equal(mustJSON(direct), body) {
		return fmt.Errorf("plan body differs from a direct plan.SearchCtx call")
	}
	return nil
}

func (c *checker) checkFleet(s fleetSpec, body []byte) error {
	var resp serve.FleetSimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode fleet: %w", err)
	}
	n := s.p.NodeSetSize
	sets := (s.bricks + n - 1) / n
	horizon := s.years * params.HoursPerYear
	var byCause int64
	for _, v := range resp.LossesByCause {
		byCause += v
	}
	switch {
	case resp.Seed != s.seed || resp.Bricks != sets*n || resp.NodeSets != sets || resp.HorizonHours != horizon:
		return fmt.Errorf("fleet identity %+v does not match the request", resp)
	case resp.Events <= 0 || byCause != resp.Losses:
		return fmt.Errorf("fleet counts inconsistent: %d events, %d losses, %d by cause", resp.Events, resp.Losses, byCause)
	case relDiff(resp.LossesPerBrickYear, float64(resp.Losses)/resp.BrickYears) > 1e-12 && resp.Losses > 0:
		return fmt.Errorf("fleet loss rate %v is not losses/brick-years", resp.LossesPerBrickYear)
	}
	want, err := core.Analyze(s.p, s.cfg, core.MethodExactStable)
	if err != nil {
		return fmt.Errorf("chain MTTA: %w", err)
	}
	expect := float64(sets) * horizon / want.MTTDLHours
	if dev := math.Abs(float64(resp.Losses) - expect); dev > fleetStderrs*math.Sqrt(expect)+fleetStderrs {
		return fmt.Errorf("fleet saw %d losses, chain predicts %.1f", resp.Losses, expect)
	}
	if s.cfg.NodeFaultTolerance == 1 && resp.Losses >= 10 {
		if resp.MTTDLHours == nil {
			return fmt.Errorf("fleet with %d losses reports no MTTDL", resp.Losses)
		}
		got := *resp.MTTDLHours
		stderr := got / math.Sqrt(float64(resp.Losses))
		if math.Abs(got-want.MTTDLHours) > fleetStderrs*stderr {
			return fmt.Errorf("fleet per-set MTTDL %.6g h is %.1f standard errors from the chain MTTA %.6g h",
				got, math.Abs(got-want.MTTDLHours)/stderr, want.MTTDLHours)
		}
	}
	return nil
}
