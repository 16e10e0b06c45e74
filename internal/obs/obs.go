// Package obs is the repo's dependency-free observability layer: an
// atomic metrics registry (counters, gauges, fixed-bucket histograms),
// context-propagated spans that also carry the structured events (one
// JSONL stream), a periodic progress reporter, and pprof capture helpers.
//
// The design contract is zero overhead when disabled: every instrumented
// layer holds a nilable pointer (a *Metrics bundle, a *Span, or a handle
// bundle resolved from the context by Bundle) and guards each
// observation with a nil check, so a run without -metrics pays a single
// predictable branch per observation point — no allocation, no atomic
// traffic, no call. The registry handles themselves are lock-free once
// created: Counter and Gauge are single atomic words, Histogram.Observe
// is one atomic add per observation plus a CAS loop for the sum.
package obs

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is allowed but makes the value non-monotonic;
// prefer a Gauge for values that go down).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 last-value cell.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max atomically raises the gauge to v if v is larger.
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds; values above the last bound land in an implicit +Inf
// overflow bucket. Observe is safe for concurrent use.
type Histogram struct {
	bounds []float64      // ascending upper bounds (inclusive)
	pow2   bool           // bounds are b₀·2^i: bucketIndex is O(1)
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not ascending at %d: %g <= %g", i, bounds[i], bounds[i-1])
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	pow2 := b[0] > 0
	for i := 1; i < len(b) && pow2; i++ {
		pow2 = b[i] == 2*b[i-1] // exact: ×2 only shifts the exponent
	}
	return &Histogram{bounds: b, pow2: pow2, counts: make([]atomic.Int64, len(b)+1)}, nil
}

// Observe records one value. Values land in the first bucket whose upper
// bound is >= v; NaN is ignored.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// ObserveN records the value v n times, as n Observe calls would (the
// sum adds v·n in one step). NaN and n <= 0 are ignored.
func (h *Histogram) ObserveN(v float64, n int64) {
	if math.IsNaN(v) || n <= 0 {
		return
	}
	h.counts[h.bucketIndex(v)].Add(n)
	h.count.Add(n)
	h.addSum(v * float64(n))
}

// bucketIndex returns the index of the first bound >= v, or len(bounds)
// for the overflow bucket. Power-of-two layouts (ExpBuckets with factor
// 2, the hot repair-duration histograms) resolve in O(1) from the
// floating-point exponent; anything else binary-searches.
func (h *Histogram) bucketIndex(v float64) int {
	if h.pow2 {
		if v <= h.bounds[0] {
			return 0
		}
		if v > h.bounds[len(h.bounds)-1] {
			return len(h.bounds)
		}
		// v/b₀ ∈ (1, 2^(n-1)]; the smallest i with 2^i >= v/b₀ is the
		// Frexp exponent, minus one when v/b₀ is an exact power of two.
		f, e := math.Frexp(v / h.bounds[0])
		if f == 0.5 {
			e--
		}
		return e
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramRecorder batches observations for one goroutine with plain
// (non-atomic) arithmetic and folds them into the shared histogram on
// Flush. Hot loops that sample many values per batch — the DES observes
// every repair-time draw — use one recorder per batch so the shared
// histogram costs a handful of atomic adds per batch instead of several
// per event. A recorder must not be shared across goroutines.
type HistogramRecorder struct {
	h      *Histogram
	counts []int64 // parallel to h.counts
	n      int64
	sum    float64
}

// Recorder returns a fresh local accumulator for h.
func (h *Histogram) Recorder() *HistogramRecorder {
	return &HistogramRecorder{h: h, counts: make([]int64, len(h.counts))}
}

// Observe records v locally; NaN is ignored.
func (r *HistogramRecorder) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	r.counts[r.h.bucketIndex(v)]++
	r.n++
	r.sum += v
}

// Flush folds the accumulated observations into the shared histogram and
// resets the recorder for reuse.
func (r *HistogramRecorder) Flush() {
	if r.n == 0 {
		return
	}
	for i := range r.counts {
		if c := r.counts[i]; c != 0 {
			r.h.counts[i].Add(c)
			r.counts[i] = 0
		}
	}
	r.h.count.Add(r.n)
	r.h.addSum(r.sum)
	r.n, r.sum = 0, 0
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n ascending bounds start, start·factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Registry is a named collection of metrics, safe for concurrent use.
// Handle lookup takes a mutex; the returned handles are lock-free.
// Re-requesting a name returns the same handle; requesting a name already
// registered as a different metric type panics (a programming error).
type Registry struct {
	mu     sync.Mutex
	names  map[string]any // *Counter | *Gauge | *Histogram
	labels map[string]string
	// bundles holds each package's handle bundle (see Bundle), keyed by
	// a nil pointer of the bundle's type.
	bundles sync.Map
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]any), labels: make(map[string]string)}
}

// Counter returns the counter registered under name, creating it if new.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.names[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T", name, m))
		}
		return c
	}
	c := &Counter{}
	r.names[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if new.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.names[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T", name, m))
		}
		return g
	}
	g := &Gauge{}
	r.names[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending upper bounds if new (bounds are ignored on
// re-lookup). Invalid bounds panic: bucket layouts are compile-time
// decisions, not runtime inputs.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.names[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: %q already registered as %T", name, m))
		}
		return h
	}
	h, err := newHistogram(bounds)
	if err != nil {
		panic(err)
	}
	r.names[name] = h
	return h
}

// Bundle returns a package's bundle of metric handles on the registry
// of ctx's span (RegistryFrom), or nil when there is none. The first
// request for a *T on a registry builds the bundle with build; later
// ones return that same bundle from one map load, without the registry
// lock. Callers resolve once per unit of work — a solve, a chunk, a
// search — and never per cell.
func Bundle[T any](ctx context.Context, build func(*Registry) *T) *T {
	reg := RegistryFrom(ctx)
	if reg == nil {
		return nil
	}
	key := (*T)(nil)
	if b, ok := reg.bundles.Load(key); ok {
		return b.(*T)
	}
	b, _ := reg.bundles.LoadOrStore(key, build(reg))
	return b.(*T)
}

// SetLabel attaches a free-form string annotation (e.g. the effective
// seed, the configuration under test) that rides along in snapshots.
func (r *Registry) SetLabel(key, value string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels[key] = value
}

// sortedNames returns the registered metric names in sorted order.
func (r *Registry) sortedNames() []string {
	names := make([]string, 0, len(r.names))
	for n := range r.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
