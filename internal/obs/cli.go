package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// Flags is the shared observability CLI surface: every long-running
// command registers the same flags so instrumentation is uniform across
// the binaries.
type Flags struct {
	// Metrics is a path to write the final JSON metrics snapshot to
	// ("-" for stdout). Empty disables metrics collection entirely.
	Metrics string
	// Progress is the interval between progress reports (0 = silent).
	Progress time.Duration
	// PProf is an address to serve live pprof on, or a file path for a
	// whole-run CPU profile (see StartPProf).
	PProf string
	// TraceOut is a path for the run's span tree, written at exit as
	// JSONL with each span's structured events (optional). With Metrics
	// also empty, StartSpan stays on its zero-allocation no-op path.
	TraceOut string
}

// AddFlags registers -metrics, -progress, -pprof and -trace-out on fs.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "write a JSON metrics snapshot to this file on exit (\"-\" = stdout)")
	fs.DurationVar(&f.Progress, "progress", 0, "report progress at this interval (e.g. 5s; 0 = silent)")
	fs.StringVar(&f.PProf, "pprof", "", "serve live pprof on host:port, or capture a CPU profile to this file")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the run's span tree and its events to this file as JSONL (\"-\" = stdout)")
	return f
}

// Session is the live observability state of one command run.
type Session struct {
	// Registry is non-nil when metrics were requested.
	Registry *Registry
	// Tracer is non-nil when -metrics or -trace-out was given. With
	// -trace-out it retains span records for the final JSONL dump; with
	// -metrics it folds span durations into Registry (as
	// trace.<name>.seconds histograms) and carries Registry to the
	// solver layers under the run's root span (see Trace).
	Tracer *Tracer

	flags    *Flags
	stopProf func() error
}

// Start opens the session: begins pprof capture and creates the registry
// and tracer as requested. Always returns a usable session (all
// fields nil when nothing was requested).
func (f *Flags) Start() (*Session, error) {
	s := &Session{flags: f}
	if f.Metrics != "" {
		s.Registry = NewRegistry()
	}
	if f.PProf != "" {
		stop, err := StartPProf(f.PProf)
		if err != nil {
			return nil, err
		}
		s.stopProf = stop
	}
	if f.Metrics != "" || f.TraceOut != "" {
		s.Tracer = NewTracer()
		s.Tracer.SetRetain(f.TraceOut != "")
		if s.Registry != nil {
			s.Tracer.SetFold(NewSpanFolder(s.Registry))
		}
	}
	return s, nil
}

// Trace roots the run's trace: when -metrics or -trace-out was given it
// returns a context carrying the root span (named root) and the span
// itself; otherwise it returns ctx unchanged and a nil (no-op) span.
// Metrics recorded below the run's layers reach Registry only through
// this context. Callers must End the returned span before Finish.
func (s *Session) Trace(ctx context.Context, root string) (context.Context, *Span) {
	if s == nil || s.Tracer == nil {
		return ctx, nil
	}
	return s.Tracer.Start(ctx, root)
}

// Progress starts a progress reporter if -progress was given; otherwise
// it returns nil (callers nil-guard Add/Stop or use the returned value's
// nil-safe wrappers below).
func (s *Session) Progress(label string, total int64, status func() string) *Progress {
	if s == nil || s.flags.Progress <= 0 {
		return nil
	}
	return StartProgress(os.Stderr, label, total, s.flags.Progress, status)
}

// Finish stops profiling, writes the retained trace, and writes the
// metrics snapshot. It returns the first error.
func (s *Session) Finish() error {
	if s == nil {
		return nil
	}
	var first error
	if s.stopProf != nil {
		first = s.stopProf()
		s.stopProf = nil
	}
	if s.flags.TraceOut != "" {
		var err error
		if s.flags.TraceOut == "-" {
			err = s.Tracer.WriteJSONL(os.Stdout)
		} else {
			var f *os.File
			f, err = os.Create(s.flags.TraceOut)
			if err == nil {
				err = s.Tracer.WriteJSONL(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err == nil {
					fmt.Fprintf(os.Stderr, "trace written to %s\n", s.flags.TraceOut)
				}
			}
		}
		if first == nil {
			first = err
		}
	}
	if s.Registry != nil && s.flags.Metrics != "" {
		snap := s.Registry.Snapshot()
		var err error
		if s.flags.Metrics == "-" {
			err = snap.WriteJSON(os.Stdout)
		} else {
			err = snap.WriteJSONFile(s.flags.Metrics)
			if err == nil {
				fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", s.flags.Metrics)
			}
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// ProgressAdd is a nil-safe Progress.Add.
func ProgressAdd(p *Progress, n int64) {
	if p != nil {
		p.Add(n)
	}
}

// ProgressStop is a nil-safe Progress.Stop.
func ProgressStop(p *Progress) {
	if p != nil {
		p.Stop()
	}
}
