package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
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
// Both paths encode each row once, by appendSweepRow, into the buffered
// body; a row line is the row's slice of the body plus a newline. The
// cache keeps the body with its row offsets, and a replay writes those
// slices without decoding. Errors after the first byte cannot change
// the status line — the error trailer is the in-band substitute.

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

// buildSweep solves job's grid into its buffered body, encoding each row
// as the solved frontier reaches it and handing it to emit, if non-nil.
func (s *Server) buildSweep(ctx context.Context, job sweepJob, emit func(row []byte) error) (result, error) {
	b := newSweepBody(job)
	_, err := core.SweepStream(ctx, job.Params, job.Configs, job.Method, job.Values, sweepKnobs[job.Parameter], s.opts.Workers,
		func(pt core.SweepPoint) error {
			row := b.add(pt)
			if emit == nil {
				return nil
			}
			if b.err != nil {
				return b.err
			}
			return emit(row)
		})
	if err == nil {
		err = b.err
	}
	if err != nil {
		return result{}, err
	}
	return b.finish(), nil
}

// bodyBufs recycles the buffers bodies are built in (finish copies out).
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// sweepBody builds a sweep's body row by row, recording where each row
// starts. err is the first value JSON cannot encode; a buffered sweep
// reports it after the grid solved, so a failing cell outranks it.
type sweepBody struct {
	labels [][]byte // configuration labels, JSON-quoted once per sweep
	pooled *[]byte  // buf's pool slot
	buf    []byte
	rows   []int
	err    error
}

func newSweepBody(job sweepJob) *sweepBody {
	b := &sweepBody{labels: make([][]byte, len(job.Configs)), pooled: bodyBufs.Get().(*[]byte), rows: make([]int, 0, len(job.Values)+1)}
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

// add appends pt's row and a separator; the returned row stays valid.
func (b *sweepBody) add(pt core.SweepPoint) []byte {
	start := len(b.buf)
	b.rows = append(b.rows, start)
	var err error
	if b.buf, err = appendSweepRow(b.buf, pt, b.labels); b.err == nil {
		b.err = err
	}
	b.buf = append(b.buf, ',')
	return b.buf[start : len(b.buf)-1]
}

// finish closes the body (its last byte is a row separator) in an
// allocation of exactly its length, so the cache holds no slack.
func (b *sweepBody) finish() result {
	b.rows = append(b.rows, len(b.buf))
	body := make([]byte, len(b.buf)+1)
	copy(body[copy(body, b.buf[:len(b.buf)-1]):], "]}")
	*b.pooled = b.buf
	bodyBufs.Put(b.pooled)
	return result{body: body, rows: b.rows}
}

// appendSweepRow appends pt's row, the encoding/json encoding of its
// SweepPointResponse, labelling result j with labels[j].
func appendSweepRow(dst []byte, pt core.SweepPoint, labels [][]byte) ([]byte, error) {
	dst, err := appendJSONFloat(append(dst, `{"x":`...), pt.X)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"results":[`...)
	for j := range pt.Results {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, `{"configuration":`...), labels[j]...), `,"mttdl_hours":`...)
		if dst, err = appendJSONFloat(dst, pt.Results[j].MTTDLHours); err == nil {
			dst, err = appendJSONFloat(append(dst, `,"events_per_pb_year":`...), pt.Results[j].EventsPerPBYear)
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
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
