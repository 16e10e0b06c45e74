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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// encodeChunks drives b as a sweep's workers and frontier do: grid's
// columns are cut into chunks of size rows, encoded by cells on workers
// goroutines in a shuffled order, and the rows are then spliced in runs
// of growing length. It returns the error splice returned for a stream
// (emit non-nil) and the rows emit received.
func encodeChunks(b *sweepBody, grid [][]core.Result, size, workers int, rng *rand.Rand, stream bool) ([][]byte, error) {
	type chunk struct{ col, lo, hi int }
	var chunks []chunk
	for col := range b.labels {
		for lo := 0; lo < len(grid); lo += size {
			chunks = append(chunks, chunk{col, lo, min(lo+size, len(grid))})
		}
	}
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(chunks); i = int(next.Add(1)) - 1 {
				ch := chunks[i]
				res := make([]core.Result, 0, ch.hi-ch.lo)
				for r := ch.lo; r < ch.hi; r++ {
					res = append(res, grid[r][ch.col])
				}
				b.cells(ch.col, ch.lo, res)
			}
		}()
	}
	wg.Wait()
	var (
		emitted [][]byte
		emit    func([]byte) error
	)
	if stream {
		emit = func(row []byte) error {
			emitted = append(emitted, bytes.Clone(row))
			return nil
		}
	}
	for lo, run := 0, 1; lo < len(grid); lo, run = lo+run, run+1 {
		if err := b.splice(lo, min(lo+run, len(grid)), emit); err != nil {
			return emitted, err
		}
	}
	return emitted, nil
}

// TestSweepRowMatchesMarshal: a body built by sweepBody — cells encoded
// chunk by chunk on concurrent workers, in any order, rows spliced in
// uneven runs — is the bytes json.Marshal writes for the same
// SweepResponse, and the recorded row offsets cut the body's points
// array into its SweepPointResponse rows, for chunks of 1, 7 and 256
// rows on 1 to 3 workers. Labels include HTML characters, quotes,
// U+2028 and invalid UTF-8, which all escape.
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
	job, labels := encoderJob()
	want := SweepResponse{Parameter: job.Parameter, Method: job.Method.String()}
	grid := make([][]core.Result, len(job.Values))
	for i := range job.Values {
		job.Values[i] = value()
		row := SweepPointResponse{X: job.Values[i], Results: make([]SweepResult, len(labels))}
		grid[i] = make([]core.Result, len(labels))
		for j := range grid[i] {
			grid[i][j] = core.Result{MTTDLHours: value(), EventsPerPBYear: value()}
			row.Results[j] = SweepResult{Configuration: labels[j], MTTDLHours: grid[i][j].MTTDLHours, EventsPerPBYear: grid[i][j].EventsPerPBYear}
		}
		want.Points = append(want.Points, row)
	}
	wantBody, _ := json.Marshal(want)
	for _, size := range []int{1, 7, 256} {
		for workers := 1; workers <= 3; workers++ {
			b := newEncoderBody(job, labels)
			rows, err := encodeChunks(b, grid, size, workers, rng, true)
			if err != nil || b.err != nil {
				t.Fatalf("size %d, %d workers: %v, %v", size, workers, err, b.err)
			}
			res := b.finish()
			b.release()
			if !bytes.Equal(res.body, wantBody) {
				t.Fatalf("size %d, %d workers: body differs from json.Marshal(SweepResponse):\n got %s\nwant %s", size, workers, res.body, wantBody)
			}
			if len(res.rows) != len(want.Points)+1 || len(rows) != len(want.Points) {
				t.Fatalf("size %d, %d workers: %d row offsets and %d emitted rows for %d rows", size, workers, len(res.rows), len(rows), len(want.Points))
			}
			for i, row := range want.Points {
				wantRow, _ := json.Marshal(row)
				if got := res.body[res.rows[i] : res.rows[i+1]-1]; !bytes.Equal(got, wantRow) || !bytes.Equal(rows[i], wantRow) {
					t.Fatalf("size %d, %d workers: row %d at offsets %d..%d is %s, emitted %s, want %s", size, workers, i, res.rows[i], res.rows[i+1]-1, got, rows[i], wantRow)
				}
			}
		}
	}

	// A value JSON cannot encode fails the cell with json.Marshal's error.
	_, err := appendSweepCell(nil, quoteJSON(labels[0]), 1, math.Inf(1))
	_, werr := json.Marshal(SweepResult{MTTDLHours: 1, EventsPerPBYear: math.Inf(1)})
	if err == nil || err.Error() != werr.Error() {
		t.Errorf("+Inf cell: err %v, want %v", err, werr)
	}
}

// encoderJob is a 40-point sweep job over three configurations, and the
// labels an encoder test gives them: the third is no configuration's
// name, but one that exercises every escape.
func encoderJob() (sweepJob, []string) {
	job := sweepJob{
		Configs: []core.Config{{Internal: core.InternalRAID5, NodeFaultTolerance: 2}, {Internal: core.InternalNone, NodeFaultTolerance: 3},
			{Internal: core.InternalNone, NodeFaultTolerance: 1}},
		Method:    core.MethodExactChain,
		Parameter: "drive_mttf_hours",
		Values:    make([]float64, 40),
	}
	return job, []string{job.Configs[0].String(), job.Configs[1].String(), `<a & "b">` + "\u2028\xff"}
}

// newEncoderBody is newSweepBody with labels in place of the
// configurations' names.
func newEncoderBody(job sweepJob, labels []string) *sweepBody {
	b := newSweepBody(job)
	for i, l := range labels {
		b.labels[i] = quoteJSON(l)
	}
	return b
}

// A non-finite value fails its row in the split encoder as it failed in
// json.Marshal: at any chunk size and worker count, a buffered body
// records json.Marshal's error and splices no row from the failing one
// on, and a stream emits exactly the rows before it, then stops with
// that error.
func TestSweepBodyNonFiniteRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	job, labels := encoderJob()
	grid := make([][]core.Result, len(job.Values))
	for i := range grid {
		job.Values[i] = float64(i + 1)
		grid[i] = make([]core.Result, len(labels))
		for j := range grid[i] {
			grid[i][j] = core.Result{MTTDLHours: float64(j + 1), EventsPerPBYear: 0.5}
		}
	}
	const bad = 17
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		grid[bad][2].EventsPerPBYear = v
		grid[bad+3][0].MTTDLHours = math.NaN() // a later failure never outranks
		_, werr := json.Marshal(SweepResult{EventsPerPBYear: v})
		for _, size := range []int{1, 7, 256} {
			for workers := 1; workers <= 3; workers++ {
				for _, stream := range []bool{false, true} {
					b := newEncoderBody(job, labels)
					rows, err := encodeChunks(b, grid, size, workers, rng, stream)
					if !stream && err != nil {
						t.Fatalf("buffered splice returned %v", err)
					}
					if stream && (err == nil || err.Error() != werr.Error() || len(rows) != bad) {
						t.Errorf("%v, size %d, %d workers: stream stopped with %v after %d rows, want %v after %d", v, size, workers, err, len(rows), werr, bad)
					}
					if b.err == nil || b.err.Error() != werr.Error() || len(b.rows) != bad {
						t.Errorf("%v, size %d, %d workers, stream %v: body error %v after %d rows, want %v after %d", v, size, workers, stream, b.err, len(b.rows), werr, bad)
					}
					b.release()
				}
			}
		}
		grid[bad+3][0].MTTDLHours = 1
	}
}

// tinyDriveMTTF is a drive lifetime (hours) at which an ft 1
// no-internal-RAID exact chain still solves to a positive, finite MTTDL
// (≈2e-304 h) whose events per PB-year overflow to +Inf.
const tinyDriveMTTF = 9.332636185032189e-302

// sweepWithValues is a sweep request over drive lifetimes for one
// ft 1 no-internal-RAID configuration on the exact chain.
func sweepWithValues(vals ...float64) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return `{"configs":[{"internal":"none","ft":1}],"method":"exact-chain","parameter":"drive_mttf_hours","values":[` + strings.Join(s, ",") + `]}`
}

// A served sweep whose events overflow keeps the parent's precedence at
// 1 to 3 workers: the buffered reply is json.Marshal's error (a 422)
// unless a cell of a later row fails, whose error then wins; the
// stream ends at the overflowing row with that error in its trailer.
func TestSweepNonFiniteEventsPrecedence(t *testing.T) {
	_, werr := json.Marshal(math.Inf(1))
	for workers := 1; workers <= 3; workers++ {
		s := New(Options{Workers: workers})
		srv := httptest.NewServer(s.Handler())
		post := func(body string) (int, string) {
			resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e struct{ Error string }
			json.Unmarshal([]byte(readAll(t, resp.Body)), &e) //nolint:errcheck // a non-JSON body leaves Error empty
			return resp.StatusCode, e.Error
		}
		if code, msg := post(sweepWithValues(3e5, tinyDriveMTTF, 2e5)); code != http.StatusUnprocessableEntity || msg != werr.Error() {
			t.Errorf("%d workers: buffered overflow = %d %q, want 422 %q", workers, code, msg, werr)
		}
		if code, msg := post(sweepWithValues(3e5, tinyDriveMTTF, 2e5, -1)); code != http.StatusUnprocessableEntity || !strings.Contains(msg, "core: sweep at x=-1") {
			t.Errorf("%d workers: buffered overflow before a failing cell = %d %q, want 422 with the cell's error", workers, code, msg)
		}
		resp := streamRequest(t, context.Background(), srv.URL, sweepWithValues(3e5, 2.5e5, tinyDriveMTTF, 2e5))
		lines := strings.Split(strings.TrimSuffix(readAll(t, resp.Body), "\n"), "\n")
		resp.Body.Close()
		var tail streamTrailer
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
			t.Fatalf("%d workers: trailer: %v", workers, err)
		}
		if len(lines) != 1+2+1 || tail.Done || tail.Error != werr.Error() {
			t.Errorf("%d workers: stream of %d lines ends %+v, want header, 2 rows and the error %q", workers, len(lines), tail, werr)
		}
		if n := s.CacheLen(); n != 0 {
			t.Errorf("%d workers: cache holds %d entries after failed sweeps, want 0", workers, n)
		}
		srv.Close()
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
		job.Values = make([]float64, points)
		cells := make([]core.Result, points)
		for i := range cells {
			job.Values[i] = float64(i + 1)
			cells[i] = core.Result{MTTDLHours: 1e6, EventsPerPBYear: 1e-3}
		}
		b := newSweepBody(job)
		b.cells(0, 0, cells)
		b.splice(0, points, nil) //nolint:errcheck // a buffered splice returns nil
		res := b.finish()
		b.release()
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
