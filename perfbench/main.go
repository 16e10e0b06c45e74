// Command perfbench is the repository's benchmark: it drives seeded
// request mixes through the in-process nsr-serve handler, checks every
// response, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See README.md for the workloads and metrics.
//
//	perfbench -workload serve-mix -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/version"
)

// setup_s is the median of cold set-ups: the run's own plus probe
// processes, up to maxSetupSamples in all, adding probes while they have
// taken less than setupProbeBudget or there are fewer than
// minSetupSamples; half the probes run before the window, half after.
const (
	minSetupSamples  = 7
	maxSetupSamples  = 21
	setupProbeBudget = 2 * time.Second
)

// checkWorkers is the number of goroutines checking responses after a
// measurement window.
const checkWorkers = 2

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	work     string
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name: serve-mix, sweep-deep, plan-stock or fleet-decade")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		work    = flag.String("work", ".bench_build", "directory for scratch files")
		probe   = flag.Bool("probe", false, "time one cold set-up and print its seconds (used by the benchmark itself)")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	o := options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work}
	if *probe {
		d, err := setupOnce(o)
		if err != nil {
			return err
		}
		fmt.Println(d)
		return nil
	}
	prov := provenance(o)
	fmt.Printf("provenance %s\n", mustJSON(prov))
	var res result
	if o.trace {
		res, err = tracedRun(o)
	} else {
		res, err = untracedRun(o)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	return nil
}

// provenance stamps a result with what produced it.
func provenance(o options) map[string]any {
	info := version.Get()
	commit := info.Commit
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"go": runtime.Version(), "cpu": cpuModel(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "commit": commit,
		"workload": o.workload.name, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB returns the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(f *os.File) {
	bw := bufio.NewWriter(f)
	for _, n := range r.notes {
		fmt.Fprintln(bw, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "  %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(bw, "checked %d responses, %d failed\n", r.Attempted, r.Failed)
	bw.Write(mustJSON(r))
	bw.WriteByte('\n')
	bw.Flush()
}

// setupOnce times one cold set-up: server construction through the
// first, untimed request of each request class.
func setupOnce(o options) (float64, error) {
	sp, err := newSpool(o.work)
	if err != nil {
		return 0, err
	}
	defer sp.close()
	start := time.Now()
	srv := serve.New(serve.Options{})
	recs, err := warmUp(srv.Handler(), o.workload.warm(o.seed), sp)
	d := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	for _, r := range recs {
		if r.status != 200 {
			return 0, fmt.Errorf("set-up request failed with status %d", r.status)
		}
	}
	return d, nil
}

// probeSetups times cold set-ups in fresh processes of this binary,
// adding to the samples in setups until there are at least lo, and more up
// to hi while probing has taken less than budget. A run probes half before
// and half after its window, so its median spans the host's state over the
// whole run, not over two seconds of it.
func probeSetups(o options, setups []float64, lo, hi int, budget time.Duration) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := setups
	start := time.Now()
	for len(out) < lo || (len(out) < hi && time.Since(start) < budget) {
		cmd := exec.Command(exe, "-probe", "-workload", o.workload.name,
			"-seed", strconv.FormatInt(o.seed, 10), "-work", o.work)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// percentile interpolates linearly between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxSlices is the number of slices a window is cut into when it has
// enough requests.
const maxSlices = 20

// perSlice cuts a window's records, in completion order, into up to
// maxSlices slices of equal count (at least w.sliceMin requests each, and
// whole pairs on workloads that alternate two request kinds) and returns fn
// of each slice. prev is the completion time the slice starts after. With
// fewer than four slices fn sees the whole window.
//
// Other tenants of a shared host slow the program for seconds at a time.
// A slice median shrugs off a disturbed minority of its requests, so
// medians are reported as the median over slices. A disturbance lands
// straight in a slice's tail and costs it throughput, so rates and tails
// are reported at the quiet quartile of slices, the one they disturbed
// least.
func perSlice(recs []record, w *workload, fn func(slice []record, prev float64) float64) []float64 {
	byDone := append([]record(nil), recs...)
	sort.Slice(byDone, func(a, b int) bool { return byDone[a].done < byDone[b].done })
	units := len(byDone) / w.pair
	k := min(maxSlices, len(byDone)/w.sliceMin, units)
	if k < 4 {
		return []float64{fn(byDone, 0)}
	}
	vals := make([]float64, k)
	prev := 0.0
	for i := range vals {
		s := byDone[w.pair*(i*units/k) : w.pair*((i+1)*units/k)]
		vals[i] = fn(s, prev)
		prev = s[len(s)-1].done
	}
	return vals
}

func rate(s []record, prev float64) float64 { return float64(len(s)) / (s[len(s)-1].done - prev) }

func p50(s []record, _ float64) float64 { return percentile(latencies(s), 50) }

func latencies(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.lat
	}
	return out
}

// firstRows returns the first-row times of the NDJSON responses when
// streamed is set, otherwise of every response.
func firstRows(recs []record, streamed bool) []float64 {
	var out []float64
	for _, r := range recs {
		if r.ndjson || !streamed {
			out = append(out, r.firstRow)
		}
	}
	return out
}

// checkAll regenerates the job stream and checks every record of one
// phase, plus the warm-up records. It returns the number checked and the
// failures.
func checkAll(c *checker, o options, warm []record, recs []record) (int, []string) {
	type item struct {
		j job
		r record
	}
	type failure struct {
		seq int
		msg string
	}
	// The buffer lets the sequential job generator run ahead of the
	// checkers.
	items := make(chan item, 256)
	parts := make([]*checker, checkWorkers)
	fails := make([][]failure, checkWorkers)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = newChecker(c.w, c.h, c.sp)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for it := range items {
				if err := parts[i].check(it.j, it.r); err != nil {
					fails[i] = append(fails[i], failure{it.r.seq, fmt.Sprintf("request %d: %v", it.r.seq, err)})
				}
				if it.r.seq >= 0 {
					parts[i].byClass[it.j.class] = append(parts[i].byClass[it.j.class], it.r.lat)
				}
			}
		}(i)
	}
	wj := o.workload.warm(o.seed)
	for i, r := range warm {
		items <- item{wj[i], r}
	}
	next := o.workload.next(o.seed)
	seq := 0
	var j job
	for _, r := range recs {
		for seq <= r.seq {
			j = next()
			seq++
		}
		items <- item{j, r}
	}
	close(items)
	wg.Wait()

	var all []failure
	for i, p := range parts {
		c.worstRel = max(c.worstRel, p.worstRel)
		c.planDirect += p.planDirect
		c.planDirectCalls += p.planDirectCalls
		for k, v := range p.byClass {
			c.byClass[k] = append(c.byClass[k], v...)
		}
		all = append(all, fails[i]...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].seq < all[b].seq })
	msgs := make([]string, len(all))
	for i, f := range all {
		msgs[i] = f.msg
	}
	return len(warm) + len(recs), msgs
}

// classNote summarizes the timed requests per request class.
func classNote(byClass map[string][]float64) string {
	names := make([]string, 0, len(byClass))
	for n := range byClass {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("per class (count, p50 ms, mean ms):")
	for _, n := range names {
		lat := byClass[n]
		var sum float64
		for _, v := range lat {
			sum += v
		}
		fmt.Fprintf(&b, " %s %d %.4g %.4g;", n, len(lat), 1e3*percentile(lat, 50), 1e3*sum/float64(len(lat)))
	}
	return b.String()
}

func reportFailures(res *result, failures []string) {
	res.Failed += len(failures)
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... and %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(o options) (result, error) {
	w := o.workload
	res := result{Metrics: map[string]metric{}}
	sp, err := newSpool(o.work)
	if err != nil {
		return res, err
	}
	defer sp.close()

	start := time.Now()
	srv := serve.New(serve.Options{})
	h := srv.Handler()
	warm, err := warmUp(h, w.warm(o.seed), sp)
	if err != nil {
		return res, err
	}
	setups, err := probeSetups(o, []float64{time.Since(start).Seconds()},
		(minSetupSamples+1)/2, (maxSetupSamples+1)/2, setupProbeBudget/2)
	if err != nil {
		return res, err
	}

	cpu0 := cpuSeconds()
	ph, err := drive(h, w, o.seed, time.Duration(o.seconds)*time.Second, sp, nil)
	if err != nil {
		return res, err
	}
	cpu := cpuSeconds() - cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := sp.flush(); err != nil {
		return res, err
	}

	c := newChecker(w, h, sp)
	checkStart := time.Now()
	n, failures := checkAll(c, o, warm, ph.records)
	checkTime := time.Since(checkStart)
	if setups, err = probeSetups(o, setups, minSetupSamples, maxSetupSamples, setupProbeBudget/2); err != nil {
		return res, err
	}
	res.Attempted = n
	reportFailures(&res, failures)
	res.Correct = res.Failed == 0

	tail := func(s []record, _ float64) float64 { return percentile(latencies(s), w.tailPct) }
	firstRow := func(s []record, _ float64) float64 { return percentile(firstRows(s, w.streamed), 50) }
	res.set("setup_s", percentile(setups, 50), "s")
	res.set("req_per_s", percentile(perSlice(ph.records, w, rate), 75), "1/s")
	res.set("p50_ms", 1e3*percentile(perSlice(ph.records, w, p50), 50), "ms")
	res.set("tail_ms", 1e3*percentile(perSlice(ph.records, w, tail), 25), "ms")
	res.set("first_row_ms", 1e3*percentile(perSlice(ph.records, w, firstRow), 50), "ms")
	res.set("peak_rss_mb", ph.peakRSS, "MB")
	res.notes = append(res.notes,
		fmt.Sprintf("workload %s: one client, closed loop, %d timed requests in %.3f s; tail_ms is p%g",
			w.name, len(ph.records), ph.elapsed, w.tailPct),
		fmt.Sprintf("over the whole window: %.6g req/s, p50 %.6g ms, p%g %.6g ms",
			float64(len(ph.records))/ph.elapsed, 1e3*percentile(latencies(ph.records), 50),
			w.tailPct, 1e3*percentile(latencies(ph.records), w.tailPct)),
		fmt.Sprintf("set-up samples (s): %v", setups),
		fmt.Sprintf("process CPU in the window: %.3f s, %.4g ms per request", cpu, 1e3*cpu/float64(len(ph.records))),
		fmt.Sprintf("Go memory at the window's end: heap in use %.1f MB, heap from OS %.1f MB, total from OS %.1f MB, %d GCs",
			float64(ms.HeapInuse)/(1<<20), float64(ms.HeapSys)/(1<<20), float64(ms.Sys)/(1<<20), ms.NumGC),
		classNote(c.byClass),
		fmt.Sprintf("failed_frac %g; worst exact-chain relative error vs exact-stable %.3g (tolerance %.3g); checks took %.1f s",
			float64(res.Failed)/float64(res.Attempted), c.worstRel, w.tolExact, checkTime.Seconds()))
	return res, nil
}

// traceBuffer is the TraceWriter: it keeps span JSONL in memory, and
// reports when it has reached its cap so the traced window can stop
// before memory grows unbounded. The server serializes its writes; the
// size is read by the client.
type traceBuffer struct {
	buf  bytes.Buffer
	size atomic.Int64
}

func (t *traceBuffer) Write(p []byte) (int, error) {
	n, err := t.buf.Write(p)
	t.size.Add(int64(n))
	return n, err
}

func (t *traceBuffer) full() bool { return t.size.Load() >= traceCap }

// traceCap bounds the retained span JSONL of one traced window.
const traceCap = 48 << 20

// writeTrace writes the traced window's spans out at the end of the run.
func writeTrace(o options, spans []byte) (string, error) {
	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload.name, o.seed))
	return path, os.WriteFile(path, spans, 0o644)
}
