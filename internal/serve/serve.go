// Package serve exposes the analysis engine (internal/core), the Markov
// substrate and the deterministic Monte Carlo estimators as a cached,
// cancellable HTTP JSON API.
//
// Endpoints:
//
//	POST /v1/analyze   one configuration's reliability analysis
//	POST /v1/sweep     a parameter sweep across configurations
//	POST /v1/simulate  a Monte Carlo MTTDL estimate (deterministic DES)
//	POST /v1/plan      a design-space search for the exact Pareto frontier
//	GET  /healthz      liveness probe + build identity
//	GET  /metrics      obs registry (Prometheus text; ?format=json|text)
//
// /v1/sweep additionally streams: a request with an Accept header
// naming application/x-ndjson receives newline-delimited JSON — one
// header line, one line per completed sweep point (in x order, written
// as points finish solving), and a done/error trailer — instead of one
// buffered body. The streamed rows are byte-identical to the buffered
// response's points array, and a completed stream fills the same cache
// entry the buffered path would have.
//
// Three properties hold for every compute endpoint:
//
//	Caching. Requests are resolved to a canonical job (presets and
//	patches flattened into the full parameter set) whose JSON encoding
//	keys an LRU result cache with single-flight deduplication:
//	concurrent identical requests solve once and all receive the
//	leader's exact bytes. Because the compute layers are deterministic
//	at any worker count (PR 2's contract), a cached response is
//	byte-identical to a fresh solve — the cache is a pure latency
//	optimization, never a semantic one.
//
//	Cancellation. The request context is threaded through the solver hot
//	loops (core.Sweep, plan.SearchCtx, sim.EstimateMTTDLParallel), so a client disconnect or server drain deadline
//	stops the grid mid-flight instead of burning CPU on an unwanted
//	answer. A cancelled solve is never cached; waiters deduplicated onto
//	it re-elect a new leader.
//
//	Bounded concurrency. At most Options.Workers requests solve
//	concurrently (a semaphore); the rest queue, respecting their own
//	contexts. Each solve may itself fan out across the same worker
//	count — the server passes it to every sweep, search and estimator
//	it runs, so two servers in one process never share a bound.
//
// Every request is additionally observable: it gets a request ID (the
// client's X-Request-ID, or a generated one, echoed back), a structured
// JSONL access-log line with a slow-request marker, per-endpoint latency
// and status-class metrics, and — on the compute endpoints — a
// request-scoped span trace threaded through the whole solver stack,
// folded into trace.*.seconds histograms on /metrics and optionally
// exported as JSONL.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures a Server. The zero value selects the defaults.
type Options struct {
	// Workers bounds concurrently solving requests and each solve's own
	// worker pool (default runtime.NumCPU()). Responses are identical at
	// any setting.
	Workers int
	// CacheEntries caps the result cache (default 256 completed results).
	CacheEntries int
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxGridCells caps a sweep's values × configs grid (default 4096).
	MaxGridCells int
	// MaxSimTrials caps a simulate request's trial count (default 20000).
	MaxSimTrials int
	// MaxFleetBrickYears caps a fleet simulate request's bricks × years
	// product (default 2e7 — a million-brick fleet for two decades).
	MaxFleetBrickYears float64
	// MaxPlanCandidates caps a plan request's design-space size (default
	// 20000 — comfortably above the stock 10800-candidate space).
	MaxPlanCandidates int
	// Registry receives the server's metrics; nil creates a fresh one.
	// Each compute request's spans fold into it, and the solver layers
	// under them (markov, rebuild, plan) record on it through the request
	// context, so /metrics exposes the full stack of this server alone.
	Registry *obs.Registry
	// AccessLog receives one JSON object per completed request (nil
	// disables logging). Writes are serialized by the server.
	AccessLog io.Writer
	// SlowThreshold marks requests at or above this duration as slow in
	// the access log and the serve.slow_requests counter (default 1s;
	// negative disables).
	SlowThreshold time.Duration
	// TraceWriter receives every compute request's completed span tree as
	// JSONL (nil disables retention; stage histograms are fed either way).
	// Writes are serialized by the server.
	TraceWriter io.Writer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxGridCells <= 0 {
		o.MaxGridCells = 4096
	}
	if o.MaxSimTrials <= 0 {
		o.MaxSimTrials = 20_000
	}
	if o.MaxFleetBrickYears <= 0 {
		o.MaxFleetBrickYears = 2e7
	}
	if o.MaxPlanCandidates <= 0 {
		o.MaxPlanCandidates = 20_000
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = time.Second
	}
	return o
}

// metrics bundles the server's registry handles.
type metrics struct {
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	// statuses counts responses per endpoint and status class, indexed
	// [status/100]: serve.responses.analyze.2xx and friends.
	statuses map[string][6]*obs.Counter
	errors   *obs.Counter
	solves   *obs.Counter
	slow     *obs.Counter
	inflight *obs.Gauge

	// Streaming sweep telemetry: streams started, point rows written,
	// and streams that ended without a done:true trailer (client gone,
	// sweep error, or cancellation).
	streams      *obs.Counter
	streamRows   *obs.Counter
	streamAborts *obs.Counter
}

// endpoints lists every routed endpoint; the compute entries solve, the
// rest are probes.
var endpoints = []string{"analyze", "sweep", "simulate", "plan", "healthz", "metrics"}

func newMetrics(reg *obs.Registry) *metrics {
	m := &metrics{
		requests:     make(map[string]*obs.Counter),
		latency:      make(map[string]*obs.Histogram),
		statuses:     make(map[string][6]*obs.Counter),
		errors:       reg.Counter("serve.errors"),
		solves:       reg.Counter("serve.solves"),
		slow:         reg.Counter("serve.slow_requests"),
		inflight:     reg.Gauge("serve.inflight"),
		streams:      reg.Counter("serve.stream.streams"),
		streamRows:   reg.Counter("serve.stream.rows"),
		streamAborts: reg.Counter("serve.stream.aborted"),
	}
	for _, ep := range endpoints {
		m.requests[ep] = reg.Counter("serve.requests." + ep)
		// 100 µs .. ~1.7 h in doubling buckets: closed forms land at the
		// bottom, cancelled-at-deadline sweeps at the top.
		m.latency[ep] = reg.Histogram("serve.request_seconds."+ep, obs.ExpBuckets(1e-4, 2, 26))
		var classes [6]*obs.Counter
		for _, c := range []int{2, 3, 4, 5} {
			classes[c] = reg.Counter(fmt.Sprintf("serve.responses.%s.%dxx", ep, c))
		}
		m.statuses[ep] = classes
	}
	return m
}

// observeStatus counts one completed response.
func (m *metrics) observeStatus(endpoint string, status int) {
	classes, ok := m.statuses[endpoint]
	if !ok {
		return
	}
	if c := status / 100; c >= 2 && c <= 5 && classes[c] != nil {
		classes[c].Inc()
	}
}

// Server is the analysis service. Create with New, mount via Handler,
// run with Serve, stop with Shutdown.
type Server struct {
	opts    Options
	reg     *obs.Registry
	metrics *metrics
	cache   *resultCache
	// folder routes completed request spans into trace.*.seconds
	// histograms on the registry, and carries the registry to the solver
	// layers under them; one folder serves every request tracer.
	folder *obs.SpanFolder
	// nextReqID generates request IDs when the client sent none.
	nextReqID atomic.Int64
	// accessMu and traceMu serialize writes to the shared AccessLog and
	// TraceWriter streams so concurrent requests emit whole lines.
	accessMu sync.Mutex
	traceMu  sync.Mutex
	// sem bounds concurrently solving requests at opts.Workers;
	// waiters respect their own contexts, so
	// a queued request that disconnects leaves the queue immediately.
	sem chan struct{}
	mux *http.ServeMux
	// fleetMetrics instruments the fleet estimator on the registry
	// (sim.fleet.* counters and gauges on /metrics).
	fleetMetrics *sim.FleetMetrics

	http *http.Server
	// cancelBase cancels the base context that parents every request
	// context; called after drain so solves orphaned by a forced
	// shutdown stop promptly.
	cancelBase context.CancelFunc
}

// New builds a Server.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Registry
	m := newMetrics(reg)
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		reg:     reg,
		metrics: m,
		folder:  obs.NewSpanFolder(reg),
		cache: newResultCache(opts.CacheEntries,
			reg.Counter("serve.cache.hits"),
			reg.Counter("serve.cache.misses"),
			reg.Counter("serve.cache.evictions")),
		sem:          make(chan struct{}, opts.Workers),
		mux:          http.NewServeMux(),
		cancelBase:   cancel,
		fleetMetrics: sim.NewFleetMetrics(reg),
	}
	s.mux.HandleFunc("/v1/analyze", s.instrument("analyze", true, s.handleAnalyze))
	s.mux.HandleFunc("/v1/sweep", s.instrument("sweep", true, s.handleSweep))
	s.mux.HandleFunc("/v1/simulate", s.instrument("simulate", true, s.handleSimulate))
	s.mux.HandleFunc("/v1/plan", s.instrument("plan", true, s.handlePlan))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", false, s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", false, s.handleMetrics))
	// Built here, not in Serve, so Shutdown never races Serve for the
	// field when the two run on different goroutines.
	s.http = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	return s
}

// statusRecorder captures the response status and body size for the
// access log and the per-class counters.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so streaming handlers can push
// rows through the recorder. The embedded interface field does not
// promote the concrete writer's Flush, so without this method every
// instrumented handler would fail the http.Flusher assertion.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// accessRecord is one structured access-log line.
type accessRecord struct {
	Time     string  `json:"time"`
	ID       string  `json:"id"`
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Endpoint string  `json:"endpoint"`
	Status   int     `json:"status"`
	Seconds  float64 `json:"seconds"`
	Bytes    int64   `json:"bytes"`
	Slow     bool    `json:"slow,omitempty"`
}

// instrument wraps a handler with the request-scoped observability
// contract: request ID assignment (client X-Request-ID respected, echoed
// back either way), per-endpoint request/latency/status metrics, the
// structured access log with its slow marker, and — on traced endpoints
// — a per-request span tracer threaded through the handler's context,
// folded into trace.*.seconds histograms and exported to TraceWriter.
func (s *Server) instrument(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.requests[endpoint].Inc()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("r%06d", s.nextReqID.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		req := r
		var tr *obs.Tracer
		var root *obs.Span
		if traced {
			tr = obs.NewTracer()
			tr.SetFold(s.folder)
			// Span records are only buffered when someone will read them;
			// the fold above feeds the histograms either way.
			tr.SetRetain(s.opts.TraceWriter != nil)
			var ctx context.Context
			ctx, root = tr.Start(r.Context(), "serve.request")
			root.SetAttr("endpoint", endpoint)
			root.SetAttr("id", id)
			req = r.WithContext(ctx)
		}
		h(rec, req)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		if root != nil {
			root.SetAttr("status", status)
			root.End()
		}
		dur := time.Since(start)
		s.metrics.latency[endpoint].Observe(dur.Seconds())
		s.metrics.observeStatus(endpoint, status)
		slow := s.opts.SlowThreshold > 0 && dur >= s.opts.SlowThreshold
		if slow {
			s.metrics.slow.Inc()
		}
		if s.opts.AccessLog != nil {
			line, err := json.Marshal(accessRecord{
				Time:     start.UTC().Format(time.RFC3339Nano),
				ID:       id,
				Method:   r.Method,
				Path:     r.URL.Path,
				Endpoint: endpoint,
				Status:   status,
				Seconds:  dur.Seconds(),
				Bytes:    rec.bytes,
				Slow:     slow,
			})
			if err == nil {
				s.accessMu.Lock()
				s.opts.AccessLog.Write(append(line, '\n')) //nolint:errcheck // logging is best-effort
				s.accessMu.Unlock()
			}
		}
		if tr != nil && s.opts.TraceWriter != nil {
			s.traceMu.Lock()
			tr.WriteJSONL(s.opts.TraceWriter) //nolint:errcheck // tracing is best-effort
			s.traceMu.Unlock()
		}
	}
}

// Registry returns the server's metrics registry (the one /metrics
// snapshots) — tests and embedding binaries read counters through it.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the server's routes as an http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. Request contexts
// descend from the server's base context, so Shutdown can cancel
// orphaned work after the drain deadline.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown gracefully stops the server: it stops accepting connections
// and drains in-flight requests until ctx expires, then cancels the
// base context so any still-running solves stop instead of computing
// answers nobody will read. Returns ctx.Err() if the drain timed out.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.cancelBase()
	return err
}
