package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// NDJSON sweep streaming. A sweep over a large grid can run for many
// seconds; the buffered handler holds every byte until the last cell
// solves. The streaming path writes each point's row the moment the
// batched engine finishes it, so a client starts plotting (or aborting)
// after the first chunk instead of after the whole grid. The wire format
// is newline-delimited JSON:
//
//	{"parameter":"...","method":"...","points":N}    header
//	{"x":...,"results":[...]}                        one line per point, ascending x
//	{"done":true,"points":N}                         trailer (success)
//	{"done":false,"error":"..."}                     trailer (sweep failed mid-stream)
//
// Both paths encode each cell once, on the worker that solved it, into
// a fragment of its row (sweepBody.cells); at the solved frontier the
// rows' fragments are spliced into the buffered body, and a row line is
// the row's slice of the body plus a newline. The cache keeps the body
// with its row offsets, and a replay writes those slices without
// decoding. Errors after the first byte cannot change the status line —
// the error trailer is the in-band substitute.

// streamHeader is the first NDJSON line: the sweep's identity and how
// many point rows a complete stream will carry.
type streamHeader struct {
	Parameter string `json:"parameter"`
	Method    string `json:"method"`
	Points    int    `json:"points"`
}

// streamTrailer is the last NDJSON line.
type streamTrailer struct {
	Done   bool   `json:"done"`
	Points int    `json:"points,omitempty"`
	Error  string `json:"error,omitempty"`
}

// wantsNDJSON reports whether the request negotiated a streamed sweep.
// The signal lives in the Accept header, not the body, so streamed and
// buffered requests canonicalize to the same cache key.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// lineWriter writes one JSON value per line, flushing each so rows
// reach the client as they complete rather than at buffer boundaries.
type lineWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

// startStream sends the NDJSON status line and headers.
func startStream(w http.ResponseWriter) lineWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	f, _ := w.(http.Flusher)
	return lineWriter{w: w, f: f}
}

// line writes v (a stream header or trailer) as one line.
func (lw lineWriter) line(v any) error {
	b, _ := json.Marshal(v) // plain structs always encode
	return lw.row(b)
}

var newline = []byte{'\n'}

// row writes b, one encoded JSON value, as one line.
func (lw lineWriter) row(b []byte) error {
	_, err := lw.w.Write(b)
	if err == nil {
		_, err = lw.w.Write(newline)
	}
	if err == nil && lw.f != nil {
		lw.f.Flush()
	}
	return err
}

// streamSweep serves one POST /v1/sweep negotiated to NDJSON: replay
// from cache when the buffered body is already there, otherwise solve
// under the server's concurrency bound, streaming rows as the engine
// completes points and filling the cache on success.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, key string, job sweepJob) {
	s.metrics.streams.Inc()
	// As on the buffered path, the cache span stays open across the solve
	// it parents.
	ctx, csp := obs.StartSpan(r.Context(), "serve.cache")
	res, hit := s.cache.peek(key)
	csp.SetAttr("hit", hit)
	if hit {
		csp.End()
		s.replayStream(w, job, res)
		return
	}
	s.cache.missed()

	started := false
	_, err := s.solve(ctx, func(cctx context.Context) (result, error) {
		started = true
		return result{}, s.streamSolve(cctx, w, key, job)
	})
	csp.End()
	if err != nil && !started {
		// Cancelled while queued for a solve slot: no byte has been
		// written, a normal error reply is still possible.
		s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("request cancelled: %v", err))
	}
	// Errors after streaming started were already reported in-band by
	// streamSolve's trailer; the status line is long gone.
}

// streamSolve runs the sweep and streams it. Called under s.solve, so
// the in-flight gauge and semaphore bracket the whole stream. On
// failure the error trailer is best-effort (the usual failure IS the
// dead client) and nothing is cached — partial grids never poison the
// key.
func (s *Server) streamSolve(ctx context.Context, w http.ResponseWriter, key string, job sweepJob) error {
	lw := startStream(w)
	err := lw.line(streamHeader{Parameter: job.Parameter, Method: job.Method.String(), Points: len(job.Values)})
	var res result
	if err == nil {
		res, err = s.buildSweep(ctx, job, func(row []byte) error {
			err := lw.row(row)
			if err == nil {
				s.metrics.streamRows.Inc()
			}
			return err
		})
		if err != nil {
			lw.line(streamTrailer{Done: false, Error: err.Error()}) //nolint:errcheck // best-effort: the client may be the failure
		} else {
			err = lw.line(streamTrailer{Done: true, Points: len(job.Values)})
		}
	}
	if err != nil {
		s.metrics.streamAborts.Inc()
		return err
	}
	s.cache.put(key, res)
	return nil
}

// replayStream writes a cached sweep as an NDJSON stream.
func (s *Server) replayStream(w http.ResponseWriter, job sweepJob, res result) {
	n := len(res.rows) - 1
	lw := startStream(w)
	err := lw.line(streamHeader{Parameter: job.Parameter, Method: job.Method.String(), Points: n})
	for i := 0; i < n && err == nil; i++ {
		if err = lw.row(res.body[res.rows[i] : res.rows[i+1]-1]); err == nil {
			s.metrics.streamRows.Inc()
		}
	}
	if err == nil {
		err = lw.line(streamTrailer{Done: true, Points: n})
	}
	if err != nil {
		s.metrics.streamAborts.Inc()
	}
}

// buildSweep solves job's grid into its buffered body: the workers
// encode each solved chunk's cells (sweepBody.cells), and each advance
// of the solved frontier splices its rows into the body and hands each
// to emit, if non-nil.
func (s *Server) buildSweep(ctx context.Context, job sweepJob, emit func(row []byte) error) (result, error) {
	b := newSweepBody(job)
	defer b.release()
	err := core.SweepStream(ctx, job.Params, job.Configs, job.Method, job.Values, sweepKnobs[job.Parameter], s.opts.Workers,
		b.cells, func(lo, hi int) error { return b.splice(lo, hi, emit) })
	if err == nil {
		err = b.err
	}
	if err != nil {
		return result{}, err
	}
	return b.finish(), nil
}

// byteBufs recycles the buffers bodies and cell fragments are built in
// (finish copies the body out).
var byteBufs = sync.Pool{New: func() any { return new([]byte) }}

// sweepBody builds a sweep's body. cells encodes each solved chunk's
// cells into fragments on the worker that solved them; splice copies
// the fragments of each completed row into the body, recording where
// each row starts. A row is its cells' fragments end to end: the first
// opens the row with its x, the last closes it. err is the first value
// JSON cannot encode, in body order; a buffered sweep reports it after
// the grid solved, so a failing cell outranks it.
type sweepBody struct {
	labels [][]byte // configuration labels, JSON-quoted once per sweep
	xs     []float64
	frags  [][]byte // cell (row, col)'s fragment at row*len(labels)+col; nil if it failed
	pooled *[]byte  // buf's pool slot
	buf    []byte
	rows   []int
	err    error

	mu     sync.Mutex
	arenas []*[]byte     // the fragments' buffers, pooled
	bad    map[int]error // a failed fragment's encoding error
}

func newSweepBody(job sweepJob) *sweepBody {
	b := &sweepBody{
		labels: make([][]byte, len(job.Configs)),
		xs:     job.Values,
		frags:  make([][]byte, len(job.Values)*len(job.Configs)),
		pooled: byteBufs.Get().(*[]byte),
		rows:   make([]int, 0, len(job.Values)+1),
	}
	for i, cfg := range job.Configs {
		b.labels[i] = quoteJSON(cfg.String())
	}
	b.buf = append(append((*b.pooled)[:0], `{"parameter":`...), quoteJSON(job.Parameter)...)
	b.buf = append(append(append(b.buf, `,"method":`...), quoteJSON(job.Method.String())...), `,"points":[`...)
	return b
}

func quoteJSON(s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return q
}

// cells encodes configuration col's results at rows [lo, lo+len(res))
// into one pooled buffer and points each cell's fragment at its bytes.
// It runs on the worker that solved the chunk, concurrently with other
// chunks', and writes only the chunk's fragment slots.
func (b *sweepBody) cells(col, lo int, res []core.Result) {
	n := len(b.labels)
	label := b.labels[col]
	arena := byteBufs.Get().(*[]byte)
	buf := slices.Grow((*arena)[:0], len(res)*(len(label)+128))
	for i := range res {
		start := len(buf)
		var err error
		if col == 0 {
			buf, err = appendJSONFloat(append(buf, `{"x":`...), b.xs[lo+i])
			buf = append(buf, `,"results":[`...)
		} else {
			buf = append(buf, ',')
		}
		if err == nil {
			buf, err = appendSweepCell(buf, label, res[i].MTTDLHours, res[i].EventsPerPBYear)
		}
		if col == n-1 {
			buf = append(buf, "]}"...)
		}
		cell := (lo+i)*n + col
		if err != nil {
			buf = buf[:start]
			b.fail(cell, err)
			continue
		}
		b.frags[cell] = buf[start:]
	}
	// Growing buf moved it; point the fragments at its final bytes.
	off := 0
	for i := range res {
		cell := (lo+i)*n + col
		if f := b.frags[cell]; f != nil {
			b.frags[cell] = buf[off : off+len(f) : off+len(f)]
			off += len(f)
		}
	}
	*arena = buf
	b.mu.Lock()
	b.arenas = append(b.arenas, arena)
	b.mu.Unlock()
}

// fail records cell's encoding error.
func (b *sweepBody) fail(cell int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.bad == nil {
		b.bad = make(map[int]error)
	}
	b.bad[cell] = err
}

// splice appends rows [lo, hi), each followed by a separator, and hands
// each to emit, if non-nil; a spliced row stays valid until release. At
// the first row holding a cell JSON cannot encode it records the cell's
// error and splices nothing more; a stream (emit non-nil) stops there
// with that error.
func (b *sweepBody) splice(lo, hi int, emit func(row []byte) error) error {
	n := len(b.labels)
	for r := lo; r < hi && b.err == nil; r++ {
		start := len(b.buf)
		for c, f := range b.frags[r*n : (r+1)*n] {
			if f == nil {
				b.mu.Lock()
				b.err = b.bad[r*n+c]
				b.mu.Unlock()
				break
			}
			b.buf = append(b.buf, f...)
		}
		if b.err != nil {
			break
		}
		b.rows = append(b.rows, start)
		b.buf = append(b.buf, ',')
		if emit != nil {
			if err := emit(b.buf[start : len(b.buf)-1]); err != nil {
				return err
			}
		}
	}
	if emit == nil {
		return nil
	}
	return b.err
}

// finish closes the body (its last byte is a row separator) in an
// allocation of exactly its length, so the cache holds no slack.
func (b *sweepBody) finish() result {
	b.rows = append(b.rows, len(b.buf))
	body := make([]byte, len(b.buf)+1)
	copy(body[copy(body, b.buf[:len(b.buf)-1]):], "]}")
	return result{body: body, rows: b.rows}
}

// release hands the body's and the fragments' buffers back to the pool.
// Called once no worker runs: after the sweep returned.
func (b *sweepBody) release() {
	*b.pooled = b.buf
	byteBufs.Put(b.pooled)
	for _, a := range b.arenas {
		byteBufs.Put(a)
	}
	b.buf, b.frags, b.arenas = nil, nil, nil
}

// appendSweepCell appends one configuration's result at a point, the
// encoding/json encoding of its SweepResult labelled with label (JSON
// quoted).
func appendSweepCell(dst, label []byte, mttdl, events float64) ([]byte, error) {
	dst = append(append(append(dst, `{"configuration":`...), label...), `,"mttdl_hours":`...)
	dst, err := appendJSONFloat(dst, mttdl)
	if err == nil {
		dst, err = appendJSONFloat(append(dst, `,"events_per_pb_year":`...), events)
	}
	return append(dst, '}'), err
}

// appendJSONFloat appends f as encoding/json encodes a float64: shortest
// 'f' format, or 'e' below 1e-6 and from 1e21 up with e-07 written e-7.
// Infinities and NaN append nothing and return json.Marshal's error.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}
