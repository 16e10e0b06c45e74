package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	if again := r.Counter("c"); again != c {
		t.Fatal("re-lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %g, want 1", got)
	}
	g.Max(0.5)
	if got := g.Value(); got != 1 {
		t.Fatalf("Max lowered the gauge to %g", got)
	}
	g.Max(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("Max did not raise the gauge: %g", got)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x as a gauge")
		}
	}()
	r.Gauge("x")
}

// TestHistogramBucketBoundaries pins the boundary rule: a value equal to
// an upper bound lands in that bucket (bounds are inclusive), values
// above the last bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.0000001, 2, 3.9, 4, 4.0001, 100, math.Inf(1)} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // ignored
	snap := r.Snapshot().Histograms["h"]
	if snap.Count != 9 {
		t.Fatalf("count = %d, want 9 (NaN must be ignored)", snap.Count)
	}
	// le 1: {0, 1}; le 2: {1.0000001, 2}; le 4: {3.9, 4}; overflow: {4.0001, 100, +Inf}.
	want := []int64{2, 2, 2}
	for i, w := range want {
		if snap.Buckets[i].Count != w {
			t.Errorf("bucket le %g = %d, want %d", snap.Buckets[i].UpperBound, snap.Buckets[i].Count, w)
		}
	}
	if snap.Overflow != 3 {
		t.Errorf("overflow = %d, want 3", snap.Overflow)
	}
	if got, want := snap.Sum, 0.0+1+1.0000001+2+3.9+4+4.0001+100; !math.IsInf(snap.Sum, 1) {
		t.Errorf("sum = %g (finite), want +Inf from the Inf observation; finite part would be %g", got, want)
	}
}

// TestBucketIndexPow2FastPath cross-checks the O(1) exponent-based index
// against the reference definition (first bound >= v) on exact bounds,
// values a ULP either side of them, and a log-uniform sweep.
func TestBucketIndexPow2FastPath(t *testing.T) {
	r := NewRegistry()
	pow2 := r.Histogram("p", ExpBuckets(0.01, 2, 24))
	plain := r.Histogram("q", ExpBuckets(1, 4, 10))
	if !pow2.pow2 || plain.pow2 {
		t.Fatalf("pow2 detection wrong: %v %v", pow2.pow2, plain.pow2)
	}
	rng := rand.New(rand.NewSource(1))
	for _, h := range []*Histogram{pow2, plain} {
		var vals []float64
		for _, b := range h.bounds {
			vals = append(vals, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
		}
		for i := 0; i < 5000; i++ {
			vals = append(vals, math.Exp(rng.Float64()*30-10))
		}
		vals = append(vals, 0, -1, math.Inf(1))
		for _, v := range vals {
			want := sort.SearchFloat64s(h.bounds, v)
			if got := h.bucketIndex(v); got != want {
				t.Fatalf("bucketIndex(%g) = %d, want %d (pow2=%v)", v, got, want, h.pow2)
			}
		}
	}
}

// TestHistogramRecorder checks the batched path agrees exactly with
// direct observation and that Flush resets the recorder.
func TestHistogramRecorder(t *testing.T) {
	r := NewRegistry()
	direct := r.Histogram("direct", []float64{1, 2, 4})
	batched := r.Histogram("batched", []float64{1, 2, 4})
	rec := batched.Recorder()
	vals := []float64{0.5, 1, 2.5, 4, 9, math.NaN()}
	for _, v := range vals {
		direct.Observe(v)
		rec.Observe(v)
	}
	rec.Flush()
	rec.Flush() // idempotent on an empty recorder
	snap := r.Snapshot()
	d, b := snap.Histograms["direct"], snap.Histograms["batched"]
	if !reflect.DeepEqual(d, b) {
		t.Fatalf("recorder diverges from direct observation:\ndirect:  %+v\nbatched: %+v", d, b)
	}
	rec.Observe(1)
	rec.Flush()
	if got := batched.Count(); got != int64(len(vals)-1+1) {
		t.Fatalf("count after reuse = %d, want %d", got, len(vals))
	}
}

// ObserveN(v, n) lands exactly where n Observe(v) calls would.
func TestHistogramObserveN(t *testing.T) {
	r := NewRegistry()
	direct := r.Histogram("direct", []float64{2, 4, 8})
	counted := r.Histogram("counted", []float64{2, 4, 8})
	for _, v := range []float64{3, 255, 8} {
		for i := 0; i < 7; i++ {
			direct.Observe(v)
		}
		counted.ObserveN(v, 7)
	}
	counted.ObserveN(5, 0)
	counted.ObserveN(math.NaN(), 3)
	snap := r.Snapshot()
	if d, c := snap.Histograms["direct"], snap.Histograms["counted"]; !reflect.DeepEqual(d, c) {
		t.Fatalf("ObserveN diverges from repeated Observe:\ndirect:  %+v\ncounted: %+v", d, c)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	r := NewRegistry()
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bounds)
				}
			}()
			r.Histogram("bad", bounds)
		}()
	}
}

// TestRegistryConcurrentHammer drives every metric type from many
// goroutines; run with -race this doubles as the data-race proof, and the
// final tallies prove no update was lost.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hammer.counter").Inc()
				r.Gauge("hammer.gauge").Add(1)
				r.Gauge("hammer.max").Max(float64(w*perWorker + i))
				r.Histogram("hammer.hist", []float64{0.25, 0.5, 0.75}).Observe(float64(i%4) / 4)
				if i%100 == 0 {
					_ = r.Snapshot() // snapshots race harmlessly with writers
				}
			}
		}(w)
	}
	wg.Wait()
	const total = workers * perWorker
	snap := r.Snapshot()
	if got := snap.Counters["hammer.counter"]; got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := snap.Gauges["hammer.gauge"]; got != total {
		t.Errorf("gauge = %g, want %d", got, total)
	}
	if got := snap.Gauges["hammer.max"]; got != float64(total-1) {
		t.Errorf("max gauge = %g, want %d", got, total-1)
	}
	h := snap.Histograms["hammer.hist"]
	if h.Count != total {
		t.Errorf("histogram count = %d, want %d", h.Count, total)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum+h.Overflow != total {
		t.Errorf("bucket counts sum to %d, want %d", bucketSum+h.Overflow, total)
	}
}

// TestNilHookZeroAlloc proves the zero-overhead contract at an event
// hook point: a Recording-guarded Event on a nil span and on a span of a
// fold-only tracer allocates nothing, and neither do the enabled metric
// primitives.
func TestNilHookZeroAlloc(t *testing.T) {
	tr := NewTracer()
	tr.SetRetain(false)
	_, folded := tr.Start(context.Background(), "fold-only")
	defer folded.End()
	for name, sp := range map[string]*Span{"nil span": nil, "fold-only span": folded} {
		if sp.Recording() {
			t.Fatalf("%s reports Recording", name)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if sp.Recording() {
				sp.Event("never", 1, map[string]any{"k": 1})
			}
		}); allocs != 0 {
			t.Errorf("guarded event on a %s allocated %v/op", name, allocs)
		}
	}
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	hist := r.Histogram("h", []float64{0, 1, 2, 3, 4, 5, 6, 7})
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		hist.Observe(3.5)
	}); allocs != 0 {
		t.Errorf("enabled metric primitives allocated %v/op", allocs)
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.SetLabel("seed", "7")
	r.Counter("a.count").Add(3)
	r.Gauge("b.gauge").Set(1.25)
	r.Histogram("c.hist", []float64{1, 10}).Observe(5)
	var jsonBuf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["a.count"] != 3 || back.Gauges["b.gauge"] != 1.25 || back.Labels["seed"] != "7" {
		t.Fatalf("round-tripped snapshot lost data: %+v", back)
	}
	if h := back.Histograms["c.hist"]; h.Count != 1 || h.Buckets[1].Count != 1 {
		t.Fatalf("round-tripped histogram wrong: %+v", h)
	}

	var textBuf bytes.Buffer
	if err := r.Snapshot().WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	text := textBuf.String()
	for _, want := range []string{"a.count", "b.gauge", "c.hist", "count=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("text snapshot missing %q:\n%s", want, text)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("ExpBuckets = %v", exp)
	}
}

func TestHistogramMean(t *testing.T) {
	var h HistogramSnapshot
	if !math.IsNaN(h.Mean()) {
		t.Error("empty histogram mean should be NaN")
	}
	h = HistogramSnapshot{Count: 4, Sum: 10}
	if h.Mean() != 2.5 {
		t.Errorf("mean = %g, want 2.5", h.Mean())
	}
}
