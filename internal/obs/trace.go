package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span tracing. A Tracer owns one trace — a tree of named, timed spans —
// and is the unit of request scoping: the HTTP service creates one
// tracer per request, the CLIs one per run. Spans propagate through
// context.Context, so the solver stack (core → model → markov → sparse)
// attributes time to stages without any layer knowing who is listening.
//
// The disabled path honors the package's zero-overhead contract: when no
// span rides the context, StartSpan is one context.Value lookup and a
// nil return — no clock read, no allocation, no atomic. All span methods
// are nil-safe, so instrumented code never guards:
//
//	ctx, sp := obs.StartSpan(ctx, "sparse.refactor")
//	defer sp.End()
//
// costs a predictable branch when tracing is off. Only attribute values
// that are themselves expensive to compute need a guard (if sp != nil).
//
// Enabled, a span is two small allocations (the Span and the derived
// context); completed spans fold into duration histograms via the
// tracer's SpanFolder and are optionally retained as SpanRecords for
// JSONL export.
//
// The folder's registry is also where every layer under the span
// records its metrics: RegistryFrom and Bundle resolve it from the
// context, so two tracers folding into two registries — two servers in
// one process — never mix their counts, and code running under no span
// records nothing.
//
// Spans are also the one structured-event stream: Event appends a named,
// timestamped entry (a DES mission's data loss, a replay's rebuild) to
// the span that produced it, and only while the span is Recording — on a
// retaining tracer. Call sites build attribute maps inside the guard:
//
//	if sp.Recording() {
//		sp.Event("data_loss", hours, map[string]any{"cause": c})
//	}

// SpanRecord is one completed span, as retained and exported. Start is
// the offset from the tracer's epoch (its creation time), so records
// from one trace order and nest consistently without wall-clock
// ambiguity.
type SpanRecord struct {
	// ID is unique within the tracer; Parent is the enclosing span's ID,
	// 0 for a root.
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"span"`
	// StartSeconds is the span's start offset from the tracer epoch;
	// Seconds its duration.
	StartSeconds float64        `json:"start"`
	Seconds      float64        `json:"seconds"`
	Attrs        map[string]any `json:"attrs,omitempty"`
	// Events are the span's structured events in emission order; a span
	// without events encodes with no "events" key.
	Events []SpanEvent `json:"events,omitempty"`
}

// SpanEvent is one structured occurrence recorded on a span. T is in the
// emitter's own unit (simulated hours for the DES and trace replays),
// not wall time.
type SpanEvent struct {
	Name  string         `json:"event"`
	T     float64        `json:"t"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Span is a live (unfinished) span handle. The zero of usefulness is the
// nil *Span: every method no-ops, which is how the disabled path costs
// nothing. A Span is owned by the goroutine that started it; SetAttr,
// Event and End must not race each other for one span, but distinct
// spans of one tracer may run on distinct goroutines concurrently.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  map[string]any
	events []SpanEvent
	retain bool // the tracer retained spans when this one started
}

// SetAttr attaches a key/value annotation. Nil-safe; on a nil span the
// arguments are discarded (callers computing an expensive value should
// guard with sp != nil).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
}

// Recording reports whether Event keeps what it is given: false for a nil
// span and for a span of a non-retaining tracer, whose records nobody
// will read. Guard attribute construction with it.
func (s *Span) Recording() bool { return s != nil && s.retain }

// Event appends a structured event at time t (in the emitter's unit) to
// a recording span; otherwise it discards its arguments.
func (s *Span) Event(name string, t float64, attrs map[string]any) {
	if !s.Recording() {
		return
	}
	s.events = append(s.events, SpanEvent{Name: name, T: t, Attrs: attrs})
}

// End completes the span: its duration is folded into the tracer's
// per-stage histograms and, on a retaining tracer, its record is kept
// for export. Nil-safe; calling End twice records the span twice (a
// programming error the tracer does not police).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.end(s)
}

// Tracer collects one trace. Safe for concurrent span start/end from
// multiple goroutines (sweep cells and DES chunks trace from worker
// pools). Create with NewTracer.
type Tracer struct {
	epoch  time.Time
	folder *SpanFolder

	mu     sync.Mutex
	nextID int64
	spans  []SpanRecord
	retain bool
}

// NewTracer returns a tracer that retains completed spans for export.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), retain: true}
}

// SetFold folds every completed span's duration into f's per-stage
// histograms (outside the tracer's lock) and makes f's registry the one
// that code running under this tracer's spans records into
// (RegistryFrom). Set it before starting spans.
func (t *Tracer) SetFold(f *SpanFolder) { t.folder = f }

// SetRetain controls whether completed spans are kept for Spans /
// WriteJSONL. A non-retaining tracer still folds durations — the serve
// path runs one per request so /metrics sees stage histograms without
// buffering sweep-sized span sets nobody will read — but its spans record
// no events. Set it before starting spans: each span samples it once.
func (t *Tracer) SetRetain(retain bool) {
	t.mu.Lock()
	t.retain = retain
	t.mu.Unlock()
}

// Start begins a root span (or a child, if ctx already carries a span of
// this tracer) and returns the derived context that parents subsequent
// StartSpan calls to it.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	var parent int64
	if cur, ok := ctx.Value(spanCtxKey{}).(*Span); ok && cur != nil && cur.tr == t {
		parent = cur.id
	}
	s := t.newSpan(name, parent)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// spanCtxKey keys the current *Span in a context. A zero-size key type
// converts to interface{} without allocating, keeping the disabled
// lookup allocation-free.
type spanCtxKey struct{}

// StartSpan begins a child of the context's current span. When the
// context carries no span — tracing disabled — it returns ctx unchanged
// and a nil span whose methods all no-op; the cost is one context.Value
// walk and a branch, with zero allocation.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	cur, _ := ctx.Value(spanCtxKey{}).(*Span)
	if cur == nil {
		return ctx, nil
	}
	s := cur.tr.newSpan(name, cur.id)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// RegistryFrom returns the registry ctx's span folds into — that of
// its tracer's SpanFolder — or nil when ctx carries no span or the
// tracer folds nowhere. Like StartSpan, the nil case is one
// context.Value lookup with no allocation.
func RegistryFrom(ctx context.Context) *Registry {
	cur, _ := ctx.Value(spanCtxKey{}).(*Span)
	if cur == nil || cur.tr.folder == nil {
		return nil
	}
	return cur.tr.folder.reg
}

func (t *Tracer) newSpan(name string, parent int64) *Span {
	t.mu.Lock()
	t.nextID++
	id, retain := t.nextID, t.retain
	t.mu.Unlock()
	return &Span{tr: t, id: id, parent: parent, name: name, start: time.Now(), retain: retain}
}

func (t *Tracer) end(s *Span) {
	seconds := time.Since(s.start).Seconds()
	t.mu.Lock()
	if t.retain {
		t.spans = append(t.spans, SpanRecord{
			ID:           s.id,
			Parent:       s.parent,
			Name:         s.name,
			StartSeconds: s.start.Sub(t.epoch).Seconds(),
			Seconds:      seconds,
			Attrs:        s.attrs,
			Events:       s.events,
		})
	}
	t.mu.Unlock()
	if t.folder != nil {
		t.folder.Fold(s.name, seconds)
	}
}

// Spans returns the completed spans sorted by start offset (ties by ID,
// which is assignment order) — a deterministic view regardless of which
// worker goroutine finished first.
func (t *Tracer) Spans() []SpanRecord {
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartSeconds != out[b].StartSeconds {
			return out[a].StartSeconds < out[b].StartSeconds
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// WriteJSONL writes the completed spans, one JSON object per line, in
// the deterministic Spans order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// SpanFolder folds span durations into per-stage histograms on a
// registry: span name "sparse.refactor" feeds histogram
// "trace.sparse.refactor.seconds". Handles are cached so the registry
// mutex is paid once per distinct stage, not once per span. Safe for
// concurrent use; one folder typically serves every request tracer of a
// process.
type SpanFolder struct {
	reg *Registry

	mu    sync.Mutex
	hists map[string]*Histogram
}

// NewSpanFolder returns a folder recording into reg.
func NewSpanFolder(reg *Registry) *SpanFolder {
	return &SpanFolder{reg: reg, hists: make(map[string]*Histogram)}
}

// spanBuckets spans 1µs .. ~17.9s in ×4 steps — the same shape as the
// solver-seconds histograms, wide enough for whole-request roots.
func spanBuckets() []float64 { return ExpBuckets(1e-6, 4, 13) }

// Fold records one completed span.
func (f *SpanFolder) Fold(name string, seconds float64) {
	f.mu.Lock()
	h := f.hists[name]
	if h == nil {
		h = f.reg.Histogram("trace."+name+".seconds", spanBuckets())
		f.hists[name] = h
	}
	f.mu.Unlock()
	h.Observe(seconds)
}
