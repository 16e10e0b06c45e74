package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

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
// Row lines are the exact bytes of the buffered response's points array
// elements (both render through sweepPointResponseFrom and one
// json.Marshal), so concatenating the rows reassembles the buffered
// body. Errors after the first byte cannot change the status line —
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

func (lw lineWriter) line(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := lw.w.Write(b); err != nil {
		return err
	}
	if lw.f != nil {
		lw.f.Flush()
	}
	return nil
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
	body, hit := s.cache.peek(key)
	csp.SetAttr("hit", hit)
	if hit {
		csp.End()
		s.replayStream(w, job, body)
		return
	}
	s.cache.missed()

	started := false
	_, err := s.solve(ctx, func(cctx context.Context) ([]byte, error) {
		started = true
		return nil, s.streamSolve(cctx, w, key, job)
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
	lw := lineWriter{w: w}
	lw.f, _ = w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if err := lw.line(streamHeader{Parameter: job.Parameter, Method: job.Method.String(), Points: len(job.Values)}); err != nil {
		s.metrics.streamAborts.Inc()
		return err
	}

	rows := make([]SweepPointResponse, 0, len(job.Values))
	labels := configLabels(job.Configs)
	apply := sweepKnobs[job.Parameter]
	_, err := core.SweepStream(ctx, job.Params, job.Configs, job.Method, job.Values, apply, s.opts.Workers,
		func(pt core.SweepPoint) error {
			row := sweepPointResponseFrom(pt, labels)
			if err := lw.line(row); err != nil {
				return err
			}
			s.metrics.streamRows.Inc()
			rows = append(rows, row)
			return nil
		})
	if err != nil {
		s.metrics.streamAborts.Inc()
		lw.line(streamTrailer{Done: false, Error: err.Error()}) //nolint:errcheck // best-effort: the client may be the failure
		return err
	}
	if err := lw.line(streamTrailer{Done: true, Points: len(rows)}); err != nil {
		s.metrics.streamAborts.Inc()
		return err
	}
	body, merr := json.Marshal(SweepResponse{Parameter: job.Parameter, Method: job.Method.String(), Points: rows})
	if merr == nil {
		s.cache.put(key, body)
	}
	return nil
}

// replayStream re-emits a cached buffered body as an NDJSON stream.
// Float64 JSON round-trips exactly, so replayed rows are byte-identical
// to the originally streamed ones.
func (s *Server) replayStream(w http.ResponseWriter, job sweepJob, body []byte) {
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("cached sweep body corrupt: %v", err))
		return
	}
	lw := lineWriter{w: w}
	lw.f, _ = w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	if err := lw.line(streamHeader{Parameter: resp.Parameter, Method: resp.Method, Points: len(resp.Points)}); err != nil {
		s.metrics.streamAborts.Inc()
		return
	}
	for _, row := range resp.Points {
		if err := lw.line(row); err != nil {
			s.metrics.streamAborts.Inc()
			return
		}
		s.metrics.streamRows.Inc()
	}
	if err := lw.line(streamTrailer{Done: true, Points: len(resp.Points)}); err != nil {
		s.metrics.streamAborts.Inc()
	}
}
