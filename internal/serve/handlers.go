package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/version"
)

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Configuration   string  `json:"configuration"`
	Method          string  `json:"method"`
	MTTDLHours      float64 `json:"mttdl_hours"`
	MTTDLYears      float64 `json:"mttdl_years"`
	EventsPerPBYear float64 `json:"events_per_pb_year"`
	CapacityPB      float64 `json:"logical_capacity_pb"`
	MeetsTarget     bool    `json:"meets_paper_target"`
	TargetMargin    float64 `json:"target_margin"`
}

// SweepResult is one configuration's analysis at one sweep point.
type SweepResult struct {
	Configuration   string  `json:"configuration"`
	MTTDLHours      float64 `json:"mttdl_hours"`
	EventsPerPBYear float64 `json:"events_per_pb_year"`
}

// SweepPointResponse is the analysis of every configuration at one value
// of the swept parameter.
type SweepPointResponse struct {
	X       float64       `json:"x"`
	Results []SweepResult `json:"results"`
}

// SweepResponse is the body of a successful POST /v1/sweep.
type SweepResponse struct {
	Parameter string               `json:"parameter"`
	Method    string               `json:"method"`
	Points    []SweepPointResponse `json:"points"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Configuration string  `json:"configuration"`
	Seed          int64   `json:"seed"`
	Trials        int     `json:"trials"`
	MeanHours     float64 `json:"mean_hours"`
	StdErrHours   float64 `json:"stderr_hours"`
	MeanEvents    float64 `json:"mean_events_per_trial"`
}

// FleetSimulateResponse is the body of a successful fleet-mode POST
// /v1/simulate (SimulateRequest.Fleet set).
type FleetSimulateResponse struct {
	Configuration string  `json:"configuration"`
	Seed          int64   `json:"seed"`
	Bricks        int     `json:"bricks"`
	NodeSets      int     `json:"node_sets"`
	HorizonHours  float64 `json:"horizon_hours"`
	BrickYears    float64 `json:"brick_years"`

	Losses             int64            `json:"losses"`
	LossesByCause      map[string]int64 `json:"losses_by_cause,omitempty"`
	LossesPerBrickYear float64          `json:"losses_per_brick_year"`
	StdErr             float64          `json:"stderr_per_brick_year"`
	// MTTDLHours is per node set — directly comparable to the analytic
	// chains' MTTA. Omitted (null) when no losses were observed, since
	// +Inf has no JSON encoding.
	MTTDLHours *float64 `json:"mttdl_hours"`

	Events          int64 `json:"events"`
	Splits          int64 `json:"splits"`
	Merges          int64 `json:"merges"`
	PeakLiveRecords int   `json:"peak_live_records"`
}

// errorResponse is the body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //nolint:errcheck // client writes are best-effort
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.metrics.errors.Inc()
	body, merr := json.Marshal(errorResponse{Error: err.Error()})
	if merr != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, status, body)
}

// solve runs compute under the server's concurrency bound and in-flight
// gauge, respecting ctx while queued. The gauge strictly brackets the
// work: a cancelled or failed solve decrements it on the way out, which
// is the "cancelled request frees its worker slot" contract. The actual
// computation runs under a "serve.compute" span, so queueing time is the
// visible gap between the cache span and the compute span.
func (s *Server) solve(ctx context.Context, compute func(context.Context) (result, error)) (result, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return result{}, ctx.Err()
	}
	defer func() { <-s.sem }()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	s.metrics.solves.Inc()
	cctx, sp := obs.StartSpan(ctx, "serve.compute")
	defer sp.End()
	return compute(cctx)
}

// serveCached is the shared compute-endpoint path: cache lookup with
// single-flight dedup, bounded solve on miss, error mapping. Latency and
// status metrics are recorded by the instrument middleware.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) (result, error)) {
	ctx, csp := obs.StartSpan(r.Context(), "serve.cache")
	res, cached, err := s.cache.do(ctx, key, func() (result, error) {
		return s.solve(ctx, compute)
	})
	if csp != nil {
		csp.SetAttr("hit", cached)
		csp.End()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone (or the server is draining); nobody is
			// listening for a body. 503 documents the outcome for any
			// proxy still on the wire.
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("request cancelled: %v", err))
			return
		}
		// The request parsed and validated but the model rejected it
		// (incompatible geometry, numerically unusable regime, ...).
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, res.body)
}

// marshalResult encodes v as a cache result.
func marshalResult(v any) (result, error) {
	b, err := json.Marshal(v)
	return result{body: b}, err
}

// requirePost guards a compute endpoint's method (request counting lives
// in the instrument middleware).
func (s *Server) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s requires POST", r.URL.Path))
		return false
	}
	return true
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	_, csp := obs.StartSpan(r.Context(), "serve.canonicalize")
	var req AnalyzeRequest
	if err := decodeRequest(r.Body, s.opts.MaxBodyBytes, &req); err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := req.resolve()
	if err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := canonicalKey("analyze", job)
	csp.End()
	s.serveCached(w, r, key, func(ctx context.Context) (result, error) {
		// A single analysis is one closed-form evaluation or one small
		// dense solve — there is no loop worth a cancellation point; the
		// context carries the request's trace.
		res, err := core.AnalyzeCtx(ctx, job.Params, job.Config, job.Method)
		if err != nil {
			return result{}, err
		}
		return marshalResult(analyzeResponseFrom(res))
	})
}

func analyzeResponseFrom(res core.Result) AnalyzeResponse {
	target := core.PaperTarget()
	return AnalyzeResponse{
		Configuration:   res.Config.String(),
		Method:          res.Method.String(),
		MTTDLHours:      res.MTTDLHours,
		MTTDLYears:      res.MTTDLHours / params.HoursPerYear,
		EventsPerPBYear: res.EventsPerPBYear,
		CapacityPB:      res.LogicalCapacityPB,
		MeetsTarget:     target.Meets(res),
		TargetMargin:    target.Margin(res),
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	_, csp := obs.StartSpan(r.Context(), "serve.canonicalize")
	var req SweepRequest
	if err := decodeRequest(r.Body, s.opts.MaxBodyBytes, &req); err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := req.resolve(s.opts.MaxGridCells)
	if err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := canonicalKey("sweep", job)
	csp.End()
	// The cache key is a function of the job alone: a streamed and a
	// buffered request for the same sweep share one entry, whichever
	// arrives first fills it.
	if wantsNDJSON(r) {
		s.streamSweep(w, r, key, job)
		return
	}
	s.serveCached(w, r, key, func(ctx context.Context) (result, error) {
		return s.buildSweep(ctx, job, nil)
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	_, csp := obs.StartSpan(r.Context(), "serve.canonicalize")
	var req SimulateRequest
	if err := decodeRequest(r.Body, s.opts.MaxBodyBytes, &req); err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Fleet != nil {
		s.handleSimulateFleet(w, r, req, csp)
		return
	}
	job, err := req.resolve(s.opts.MaxSimTrials)
	if err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	config := req.Config
	key := canonicalKey("simulate", job)
	csp.End()
	s.serveCached(w, r, key, func(ctx context.Context) (result, error) {
		// The estimate is bit-identical at any worker count, so the
		// choice is invisible in the response — the precondition for
		// caching a Monte Carlo result at all.
		est, err := sim.EstimateMTTDLParallel(ctx, job.Scenario, job.Seed, job.Trials, job.MaxEvts, s.opts.Workers, sim.Observer{})
		if err != nil {
			return result{}, err
		}
		cfg, _ := config.resolve() // already validated during resolve
		return marshalResult(SimulateResponse{
			Configuration: cfg.String(),
			Seed:          job.Seed,
			Trials:        est.Trials,
			MeanHours:     est.MeanHours,
			StdErrHours:   est.StdErr,
			MeanEvents:    est.MeanEvts,
		})
	})
}

// handleSimulateFleet is the fleet leg of POST /v1/simulate: one mission
// horizon over a whole fleet via the aggregating estimator, cached under
// the canonical job. The wire's engine field selects nothing, so every
// accepted spelling shares the entry.
func (s *Server) handleSimulateFleet(w http.ResponseWriter, r *http.Request, req SimulateRequest, csp *obs.Span) {
	job, err := req.resolveFleet(s.opts.MaxFleetBrickYears)
	if err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	config := req.Config
	key := canonicalKey("simulate-fleet", job)
	csp.End()
	s.serveCached(w, r, key, func(ctx context.Context) (result, error) {
		// The estimate is bit-identical at any worker count, the
		// precondition for caching it.
		est, err := sim.EstimateFleet(ctx, job.Scenario, job.Bricks, job.HorizonHours,
			job.Seed, s.opts.Workers, 0, s.fleetMetrics)
		if err != nil {
			return result{}, err
		}
		cfg, _ := config.resolve() // already validated during resolve
		resp := FleetSimulateResponse{
			Configuration:      cfg.String(),
			Seed:               job.Seed,
			Bricks:             est.Bricks,
			NodeSets:           est.NodeSets,
			HorizonHours:       est.HorizonHours,
			BrickYears:         est.BrickYears,
			Losses:             est.Losses,
			LossesPerBrickYear: est.LossesPerBrickYear,
			StdErr:             est.StdErr,
			Events:             est.Events,
			Splits:             est.Splits,
			Merges:             est.Merges,
			PeakLiveRecords:    est.PeakLiveRecords,
		}
		if est.Losses > 0 {
			mttdl := est.MTTDLHours
			resp.MTTDLHours = &mttdl
			resp.LossesByCause = make(map[string]int64)
			for c := sim.LossNone; c <= sim.LossRestripeUE; c++ {
				if n := est.CauseCount(c); n > 0 {
					resp.LossesByCause[c.String()] = n
				}
			}
		}
		return marshalResult(resp)
	})
}

// handlePlan is POST /v1/plan: the two-phase redundancy-apportionment
// search (internal/plan). The response body is the optimizer's
// plan.Result JSON — stats partition, effective target, and the ranked
// exact Pareto frontier. The search is deterministic at any worker
// count, so the cached bytes equal a fresh solve's, and its hot loops
// (enumeration, batched confirmation) poll the request context, so a
// dead client stops the search mid-space and caches nothing.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r) {
		return
	}
	_, csp := obs.StartSpan(r.Context(), "serve.canonicalize")
	var req PlanRequest
	if err := decodeRequest(r.Body, s.opts.MaxBodyBytes, &req); err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := req.resolve(s.opts.MaxPlanCandidates)
	if err != nil {
		csp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	key := canonicalKey("plan", job)
	csp.End()
	s.serveCached(w, r, key, func(ctx context.Context) (result, error) {
		res, err := plan.SearchCtx(ctx, job.Params, job.Space, job.Cons, plan.Options{Top: job.Top, Workers: s.opts.Workers})
		if err != nil {
			return result{}, err
		}
		return marshalResult(res)
	})
}

// healthzResponse is the body of GET /healthz: liveness plus the build
// identity of the serving binary, so deployments can verify what is
// actually running.
type healthzResponse struct {
	Status    string `json:"status"`
	Version   string `json:"version"`
	Commit    string `json:"commit"`
	BuildDate string `json:"build_date"`
	Go        string `json:"go"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("/healthz requires GET"))
		return
	}
	info := version.Get()
	body, err := json.Marshal(healthzResponse{
		Status:    "ok",
		Version:   info.Version,
		Commit:    info.Commit,
		BuildDate: info.Date,
		Go:        info.Go,
	})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics exposes the registry. The default exposition is the
// Prometheus text format (0.0.4) so a stock Prometheus scrape works
// unconfigured; `?format=json` (or an Accept header preferring
// application/json) returns the structured JSON snapshot, and
// `?format=text` keeps the legacy human-readable dump.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		s.writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("/metrics requires GET"))
		return
	}
	snap := s.reg.Snapshot()
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/json") {
		format = "json"
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w) //nolint:errcheck // client writes are best-effort
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		snap.WriteText(w) //nolint:errcheck // client writes are best-effort
	default:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w) //nolint:errcheck // client writes are best-effort
	}
}
