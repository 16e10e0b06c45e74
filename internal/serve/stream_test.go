package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// streamRequest POSTs a sweep negotiated to NDJSON and returns the
// response; the caller reads lines from resp.Body as they arrive.
func streamRequest(t *testing.T, ctx context.Context, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSweepStreamE2E is the streaming acceptance test: a ≥10k-cell
// exact-chain sweep streams its first row while the grid is still
// solving, delivers every point in ascending x order, and the streamed
// rows reassemble byte-for-byte into the buffered JSON body.
func TestSweepStreamE2E(t *testing.T) {
	s := New(Options{MaxGridCells: 20000})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	inflight := s.Registry().Gauge("serve.inflight")

	const n = 10_000
	body := slowSweepBody(n)
	resp := streamRequest(t, context.Background(), srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	br := bufio.NewReader(resp.Body)
	readLine := func() string {
		t.Helper()
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		return strings.TrimSuffix(line, "\n")
	}

	var hdr streamHeader
	if err := json.Unmarshal([]byte(readLine()), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Parameter != "drive_mttf_hours" || hdr.Method != "exact-chain" || hdr.Points != n {
		t.Fatalf("header = %+v", hdr)
	}

	// First row must arrive while the remaining grid is still solving:
	// the solve slot is held and nothing is cached yet.
	first := readLine()
	if g := inflight.Value(); g < 1 {
		t.Errorf("inflight gauge = %v after first row, want >= 1 (grid finished before first row?)", g)
	}
	if c := s.CacheLen(); c != 0 {
		t.Errorf("cache holds %d entries mid-stream, want 0", c)
	}

	rows := []string{first}
	lastX := -1.0
	for len(rows) < n {
		rows = append(rows, readLine())
	}
	for i, row := range rows {
		var pt SweepPointResponse
		if err := json.Unmarshal([]byte(row), &pt); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if pt.X <= lastX {
			t.Fatalf("row %d x=%v not ascending after %v", i, pt.X, lastX)
		}
		lastX = pt.X
	}
	var tail streamTrailer
	if err := json.Unmarshal([]byte(readLine()), &tail); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if !tail.Done || tail.Points != n {
		t.Fatalf("trailer = %+v, want done with %d points", tail, n)
	}
	if _, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("stream continues past trailer: %v", err)
	}

	// A completed stream fills the cache with the buffered body...
	if c := s.CacheLen(); c != 1 {
		t.Fatalf("cache holds %d entries after stream, want 1", c)
	}
	bresp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil || bresp.StatusCode != http.StatusOK {
		t.Fatalf("buffered sweep: status %d, err %v", bresp.StatusCode, err)
	}

	// ...and the streamed rows reassemble byte-for-byte into it.
	reassembled := fmt.Sprintf(`{"parameter":%q,"method":%q,"points":[%s]}`,
		hdr.Parameter, hdr.Method, strings.Join(rows, ","))
	if reassembled != string(buffered) {
		t.Error("reassembled stream differs from buffered body")
	}

	// Independent check against a fresh server (no shared cache): the
	// buffered body of a from-scratch solve matches too.
	s2 := New(Options{MaxGridCells: 20000})
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	fresp, err := http.Post(srv2.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if err != nil || fresp.StatusCode != http.StatusOK {
		t.Fatalf("fresh buffered sweep: status %d, err %v", fresp.StatusCode, err)
	}
	if string(fresh) != reassembled {
		t.Error("reassembled stream differs from an independent buffered solve")
	}
}

// TestSweepStreamClientKillMidStream kills the client after the first
// row: the solve must stop promptly (slot freed, gauge back to zero)
// and the partial grid must not be cached.
func TestSweepStreamClientKillMidStream(t *testing.T) {
	s := New(Options{MaxGridCells: 65536})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	inflight := s.Registry().Gauge("serve.inflight")
	aborts := s.Registry().Counter("serve.stream.aborted")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := streamRequest(t, ctx, srv.URL, slowSweepBody(32768))
	defer resp.Body.Close()

	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // header
		t.Fatalf("header: %v", err)
	}
	if _, err := br.ReadString('\n'); err != nil { // first row
		t.Fatalf("first row: %v", err)
	}
	cancel()

	waitFor(t, 5*time.Second, func() bool { return inflight.Value() == 0 })
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after killed stream, want 0", n)
	}
	waitFor(t, 2*time.Second, func() bool { return aborts.Value() >= 1 })

	// The key is not poisoned: a small sweep on the same server works.
	ok, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(slowSweepBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("post-kill sweep status = %d", ok.StatusCode)
	}
}

// TestSweepStreamCachedReplay: a sweep buffered first is replayed to a
// streaming client from cache, row-for-row identical, without solving.
func TestSweepStreamCachedReplay(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	solves := s.Registry().Counter("serve.solves")

	body := slowSweepBody(16)
	bresp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buffered, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d", bresp.StatusCode)
	}
	solved := solves.Value()

	resp := streamRequest(t, context.Background(), srv.URL, body)
	defer resp.Body.Close()
	lines := strings.Split(strings.TrimSuffix(readAll(t, resp.Body), "\n"), "\n")
	if got := solves.Value(); got != solved {
		t.Errorf("cached replay ran %v extra solves", got-solved)
	}
	if len(lines) != 16+2 {
		t.Fatalf("replay emitted %d lines, want 18", len(lines))
	}
	var decoded SweepResponse
	if err := json.Unmarshal(buffered, &decoded); err != nil {
		t.Fatal(err)
	}
	reassembled := fmt.Sprintf(`{"parameter":%q,"method":%q,"points":[%s]}`,
		decoded.Parameter, decoded.Method, strings.Join(lines[1:len(lines)-1], ","))
	if reassembled != string(buffered) {
		t.Error("replayed rows differ from the buffered body")
	}
}

// TestSweepStreamErrorTrailer: a grid that fails mid-sweep ends the
// stream with a done:false trailer carrying the sweep error, and caches
// nothing.
func TestSweepStreamErrorTrailer(t *testing.T) {
	s := New(Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"configs":[{"internal":"none","ft":2}],
		"method":"exact-chain",
		"parameter":"node_set_size",
		"values":[64, 2]}`
	resp := streamRequest(t, context.Background(), srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d (errors after first byte are in-band)", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSuffix(readAll(t, resp.Body), "\n"), "\n")
	var tail streamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if tail.Done {
		t.Fatalf("trailer = %+v, want done:false", tail)
	}
	if !strings.Contains(tail.Error, "core: sweep at x=2") {
		t.Errorf("trailer error = %q, want the failing cell's core error", tail.Error)
	}
	if n := s.CacheLen(); n != 0 {
		t.Errorf("cache holds %d entries after failed stream, want 0", n)
	}
}

func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// jsonFloatSeeds are the float64s where encoding/json's format changes:
// signed zeros, both sides of the 'f'/'e' switches at 1e-6 and 1e21,
// subnormals and the extremes.
func jsonFloatSeeds() []float64 {
	seeds := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, 1e-10, 1e20, 1e22, 123456789e-15,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, edge := range []float64{1e-6, 1e21} {
		for _, v := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, math.Inf(1))} {
			seeds = append(seeds, v, -v)
		}
	}
	return seeds
}

// FuzzJSONFloat: appendJSONFloat writes json.Marshal's bytes for every
// finite float64 and json.Marshal's error for the rest.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range jsonFloatSeeds() {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		got, gerr := appendJSONFloat([]byte("x"), v)
		want, werr := json.Marshal(v)
		if werr != nil {
			if gerr == nil || gerr.Error() != werr.Error() || string(got) != "x" {
				t.Fatalf("%v: appended %q, err %v; json.Marshal err %v", v, got, gerr, werr)
			}
			return
		}
		if gerr != nil || string(got) != "x"+string(want) {
			t.Fatalf("%v: appended %q, err %v; json.Marshal %q", v, got, gerr, want)
		}
	})
}

// TestSweepRowMatchesMarshal: a row from appendSweepRow, and a whole body
// from sweepBody, are the bytes json.Marshal writes for the same
// SweepPointResponse and SweepResponse, and the recorded row offsets
// cut the body's points array into those rows.
func TestSweepRowMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var floats []float64
	for _, v := range jsonFloatSeeds() {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			floats = append(floats, v)
		}
	}
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return math.Ldexp(rng.Float64(), rng.Intn(160)-80)
	}
	job := sweepJob{
		Configs:   []core.Config{{Internal: core.InternalRAID5, NodeFaultTolerance: 2}, {Internal: core.InternalNone, NodeFaultTolerance: 3}},
		Method:    core.MethodExactChain,
		Parameter: "drive_mttf_hours",
		Values:    make([]float64, 40),
	}
	b := newSweepBody(job)
	labels := []string{job.Configs[0].String(), job.Configs[1].String(),
		`<a & "b">` + "\u2028\xff"} // HTML characters, quotes, U+2028 and invalid UTF-8 all escape
	b.labels = append(b.labels, quoteJSON(labels[2]))
	want := SweepResponse{Parameter: job.Parameter, Method: job.Method.String()}
	for i := range job.Values {
		pt := core.SweepPoint{X: value(), Results: make([]core.Result, len(b.labels))}
		row := SweepPointResponse{X: pt.X, Results: make([]SweepResult, len(b.labels))}
		for j := range pt.Results {
			pt.Results[j] = core.Result{MTTDLHours: value(), EventsPerPBYear: value()}
			row.Results[j] = SweepResult{Configuration: labels[j], MTTDLHours: pt.Results[j].MTTDLHours, EventsPerPBYear: pt.Results[j].EventsPerPBYear}
		}
		got := b.add(pt)
		if b.err != nil {
			t.Fatalf("row %d: %v", i, b.err)
		}
		wantRow, _ := json.Marshal(row)
		if !bytes.Equal(got, wantRow) {
			t.Fatalf("row %d:\n got %s\nwant %s", i, got, wantRow)
		}
		want.Points = append(want.Points, row)
	}
	res := b.finish()
	wantBody, _ := json.Marshal(want)
	if !bytes.Equal(res.body, wantBody) {
		t.Fatalf("body differs from json.Marshal(SweepResponse):\n got %s\nwant %s", res.body, wantBody)
	}
	if len(res.rows) != len(want.Points)+1 {
		t.Fatalf("%d row offsets for %d rows", len(res.rows), len(want.Points))
	}
	for i, row := range want.Points {
		wantRow, _ := json.Marshal(row)
		if got := res.body[res.rows[i] : res.rows[i+1]-1]; !bytes.Equal(got, wantRow) {
			t.Fatalf("row %d at offsets %d..%d is %s, want %s", i, res.rows[i], res.rows[i+1]-1, got, wantRow)
		}
	}

	// A value JSON cannot encode fails the row with json.Marshal's error.
	_, err := appendSweepRow(nil, core.SweepPoint{X: 1, Results: []core.Result{{MTTDLHours: 1, EventsPerPBYear: math.Inf(1)}}}, b.labels)
	_, werr := json.Marshal(SweepPointResponse{X: 1, Results: []SweepResult{{MTTDLHours: 1, EventsPerPBYear: math.Inf(1)}}})
	if err == nil || err.Error() != werr.Error() {
		t.Errorf("+Inf row: err %v, want %v", err, werr)
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Flush()                      {}

// TestSweepReplayDecodesNothing pins the cache-hit NDJSON replay: it
// writes slices of the cached body, so its allocations (the stream's
// header and trailer) do not grow with the number of rows.
func TestSweepReplayDecodesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoder state at random")
	}
	s := New(Options{})
	job := sweepJob{Configs: []core.Config{{Internal: core.InternalNone, NodeFaultTolerance: 2}}, Method: core.MethodClosedForm, Parameter: "drive_mttf_hours"}
	allocs := func(points int) float64 {
		b := newSweepBody(job)
		for i := 0; i < points; i++ {
			b.add(core.SweepPoint{X: float64(i + 1), Results: []core.Result{{MTTDLHours: 1e6, EventsPerPBYear: 1e-3}}})
		}
		res := b.finish()
		w := discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(50, func() { s.replayStream(w, job, res) })
	}
	few, many := allocs(4), allocs(512)
	if many != few || many > 8 {
		t.Errorf("replay allocations: %v for 4 rows, %v for 512, want equal and at most 8", few, many)
	}
}

// TestCachedSweepBodiesExact: sweep bodies enter the cache in
// allocations of exactly their length, from the buffered and the NDJSON
// path alike.
func TestCachedSweepBodiesExact(t *testing.T) {
	for _, ndjson := range []bool{false, true} {
		s := New(Options{})
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(slowSweepBody(64)))
		if ndjson {
			req.Header.Set("Accept", "application/x-ndjson")
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK || s.CacheLen() != 1 {
			t.Fatalf("ndjson=%v: status %d, %d cache entries", ndjson, w.Code, s.CacheLen())
		}
		for _, e := range s.cache.entries {
			if cap(e.res.body) != len(e.res.body) || cap(e.res.rows) != len(e.res.rows) {
				t.Errorf("ndjson=%v: cached body len %d cap %d, rows len %d cap %d",
					ndjson, len(e.res.body), cap(e.res.body), len(e.res.rows), cap(e.res.rows))
			}
		}
	}
}
