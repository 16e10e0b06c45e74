package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// recorder is the in-process http.ResponseWriter a client hands to
// ServeHTTP. It keeps the body and notes when the first result row was
// written: the first point line of an NDJSON stream, the first body byte
// otherwise.
type recorder struct {
	hdr      http.Header
	status   int
	body     []byte
	start    time.Time
	ndjson   bool
	lines    int
	firstRow time.Duration
}

func (r *recorder) reset(ndjson bool) {
	for k := range r.hdr {
		delete(r.hdr, k)
	}
	r.status, r.body, r.ndjson, r.lines, r.firstRow = 0, r.body[:0], ndjson, 0, 0
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	r.body = append(r.body, b...)
	if r.firstRow == 0 {
		if !r.ndjson {
			r.firstRow = time.Since(r.start)
		} else if r.lines += bytes.Count(b, []byte{'\n'}); r.lines >= 2 {
			// Line 1 is the stream header; line 2 the first point row.
			r.firstRow = time.Since(r.start)
		}
	}
	return len(b), nil
}

func (r *recorder) Flush() {}

// record is one served request, kept compact: bodies go to the spool.
type record struct {
	seq      int     // index in the job stream; -1-i for warm-up job i
	status   int     // HTTP status
	lat      float64 // seconds from the ServeHTTP call to its return
	firstRow float64 // seconds to the first result row
	done     float64 // seconds from the window's start to completion
	size     int     // body bytes
	hash     uint64  // maphash of the body
	off      int64   // spool offset of the body; -1-offset of the first body for a repeat
	ndjson   bool
}

// spool holds response bodies on disk during a run, so neither the
// process's resident memory nor its heap carries them. A reused request
// (job.ident >= 0) spools its body once; later responses keep only a hash,
// which the checks compare against the spooled body's.
type spool struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	off  int64
	seen map[int]int64 // spoolKey -> spool offset of its first body
	seed maphash.Seed
}

func newSpool(dir string) (*spool, error) {
	f, err := os.CreateTemp(dir, "spool-*.bin")
	if err != nil {
		return nil, fmt.Errorf("create spool: %w", err)
	}
	return &spool{f: f, w: bufio.NewWriterSize(f, 1<<20), seen: map[int]int64{}, seed: maphash.MakeSeed()}, nil
}

// key folds the NDJSON mode into the ident: a streamed and a buffered
// response to the same request differ in bytes.
func spoolKey(j job) int {
	if j.ndjson {
		return -2 - j.ident
	}
	return j.ident
}

// put stores a body (or, for a repeat of a reused request, nothing) and
// returns its hash and offset.
func (s *spool) put(j job, body []byte) (uint64, int64, error) {
	h := maphash.Bytes(s.seed, body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.ident >= 0 {
		if off, ok := s.seen[spoolKey(j)]; ok {
			return h, -off - 1, nil
		}
	}
	off := s.off
	var n [8]byte
	for i := range n {
		n[i] = byte(len(body) >> (8 * i))
	}
	if _, err := s.w.Write(n[:]); err != nil {
		return 0, 0, fmt.Errorf("spool write: %w", err)
	}
	if _, err := s.w.Write(body); err != nil {
		return 0, 0, fmt.Errorf("spool write: %w", err)
	}
	s.off += int64(len(n) + len(body))
	if j.ident >= 0 {
		s.seen[spoolKey(j)] = off
	}
	return h, off, nil
}

// get reads back the body stored at off (a negative off names the first
// body of a reused request, as put returned it).
func (s *spool) get(off int64) ([]byte, error) {
	if off < 0 {
		off = -off - 1
	}
	var n [8]byte
	if _, err := s.f.ReadAt(n[:], off); err != nil {
		return nil, fmt.Errorf("spool read: %w", err)
	}
	var size int64
	for i := range n {
		size |= int64(n[i]) << (8 * i)
	}
	body := make([]byte, size)
	if _, err := s.f.ReadAt(body, off+8); err != nil && err != io.EOF {
		return nil, fmt.Errorf("spool read: %w", err)
	}
	return body, nil
}

// firstOf returns the spool offset of the first body stored for a reused
// request in the given mode.
func (s *spool) firstOf(j job, ndjson bool) (int64, bool) {
	k := j
	k.ndjson = ndjson
	s.mu.Lock()
	defer s.mu.Unlock()
	off, ok := s.seen[spoolKey(k)]
	return off, ok
}

func (s *spool) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("spool flush: %w", err)
	}
	return nil
}

func (s *spool) close() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// recordLog keeps one client's records on disk during a window, so the
// benchmark's bookkeeping does not grow the resident memory that
// peak_rss_mb reports.
type recordLog struct {
	f *os.File
	w *bufio.Writer
}

// recordSize is the encoded size of a record: eight 8-byte fields and a
// flag byte.
const recordSize = 8*8 + 1

func newRecordLog(dir string) (*recordLog, error) {
	f, err := os.CreateTemp(dir, "records-*.bin")
	if err != nil {
		return nil, fmt.Errorf("create record log: %w", err)
	}
	return &recordLog{f: f, w: bufio.NewWriterSize(f, 64<<10)}, nil
}

func (l *recordLog) add(r record) error {
	var b [recordSize]byte
	for i, v := range []uint64{uint64(r.seq), uint64(r.status), math.Float64bits(r.lat), math.Float64bits(r.firstRow),
		math.Float64bits(r.done), uint64(r.size), r.hash, uint64(r.off)} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	if r.ndjson {
		b[64] = 1
	}
	if _, err := l.w.Write(b[:]); err != nil {
		return fmt.Errorf("record log write: %w", err)
	}
	return nil
}

// all reads the logged records back.
func (l *recordLog) all() ([]record, error) {
	if err := l.w.Flush(); err != nil {
		return nil, fmt.Errorf("record log flush: %w", err)
	}
	data, err := os.ReadFile(l.f.Name())
	if err != nil {
		return nil, fmt.Errorf("record log read: %w", err)
	}
	out := make([]record, len(data)/recordSize)
	for i := range out {
		b := data[i*recordSize:]
		u := func(k int) uint64 { return binary.LittleEndian.Uint64(b[8*k:]) }
		out[i] = record{seq: int(u(0)), status: int(u(1)), lat: math.Float64frombits(u(2)),
			firstRow: math.Float64frombits(u(3)), done: math.Float64frombits(u(4)), size: int(u(5)),
			hash: u(6), off: int64(u(7)), ndjson: b[64] == 1}
	}
	return out, nil
}

func (l *recordLog) close() {
	l.f.Close()
	os.Remove(l.f.Name())
}

// newRequest builds the in-process request for j; the request ID names its
// position in the job stream, so an exported trace can be read against it.
func newRequest(j job, id string) *http.Request {
	req, err := http.NewRequest(http.MethodPost, "http://bench"+j.path, bytes.NewReader(j.body))
	if err != nil {
		panic(err) // the path and method are constants
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	if j.ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	return req
}

// serveOne runs one request through h and records it.
func serveOne(h http.Handler, rec *recorder, sp *spool, j job, seq int) (record, error) {
	rec.reset(j.ndjson)
	req := newRequest(j, "q"+strconv.Itoa(seq))
	rec.start = time.Now()
	h.ServeHTTP(rec, req)
	lat := time.Since(rec.start)
	r := record{seq: seq, status: rec.status, lat: lat.Seconds(), firstRow: rec.firstRow.Seconds(),
		size: len(rec.body), ndjson: j.ndjson}
	if r.status == 0 {
		r.status = http.StatusOK
	}
	var err error
	r.hash, r.off, err = sp.put(j, rec.body)
	return r, err
}

// phase is one closed-loop measurement window over a job stream.
type phase struct {
	records []record
	elapsed float64 // seconds from the start to the last completion
	// peakRSS is the process's peak resident memory in MB when the window
	// closed, before the records are read back.
	peakRSS float64
}

// drive runs one closed-loop client against h for the given duration: it
// takes the next job of w's seeded stream, serves it and only then takes
// another. After the deadline it stops when the issued count is a multiple
// of w.pair. stop, when non-nil, ends the window early.
func drive(h http.Handler, w *workload, seed int64, d time.Duration, sp *spool, stop func() bool) (phase, error) {
	var ph phase
	log, err := newRecordLog(filepath.Dir(sp.f.Name()))
	if err != nil {
		return ph, err
	}
	defer log.close()
	next := w.next(seed)
	rec := &recorder{hdr: http.Header{}}
	start := time.Now()
	deadline := start.Add(d)
	last := start
	for seq := 0; seq%w.pair != 0 || !(time.Now().After(deadline) || (stop != nil && stop())); seq++ {
		r, err := serveOne(h, rec, sp, next(), seq)
		if err != nil {
			return ph, err
		}
		last = time.Now()
		r.done = last.Sub(start).Seconds()
		if err := log.add(r); err != nil {
			return ph, err
		}
	}
	ph.peakRSS = peakRSSMB()
	ph.elapsed = last.Sub(start).Seconds()
	ph.records, err = log.all()
	return ph, err
}

// warmUp serves one job of each request class, in order, untimed.
func warmUp(h http.Handler, jobs []job, sp *spool) ([]record, error) {
	rec := &recorder{hdr: http.Header{}}
	out := make([]record, len(jobs))
	for i, j := range jobs {
		r, err := serveOne(h, rec, sp, j, -1-i)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
