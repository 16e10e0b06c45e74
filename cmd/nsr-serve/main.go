// Command nsr-serve runs the reliability analysis service: a cached,
// cancellable HTTP JSON API over the analysis engine, the exact Markov
// solvers and the deterministic Monte Carlo estimators.
//
// Usage:
//
//	nsr-serve [-addr :8080] [-workers 0] [-cache 256]
//	          [-drain 10s] [-grid-cells 4096] [-sim-trials 20000]
//	          [-max-fleet-brick-years 2e7] [-max-body 1048576]
//	          [-access-log FILE] [-slow 1s] [-trace-out FILE]
//	          [-pprof-http host:port] [-version]
//
// Endpoints: POST /v1/analyze, /v1/sweep, /v1/simulate;
// GET /healthz, /metrics (Prometheus text by default; ?format=json).
// POST /v1/sweep with "Accept: application/x-ndjson" streams completed
// sweep points as NDJSON rows instead of buffering the whole grid.
// SIGINT/SIGTERM drain in-flight requests for -drain, then cancel
// whatever is left; a clean drain exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-serve:", err)
		os.Exit(1)
	}
}

// openSink resolves a log-ish path flag: "" is nil (disabled), "-" is
// stdout, anything else appends to the named file.
func openSink(path string, stdout io.Writer) (io.Writer, func() error, error) {
	switch path {
	case "":
		return nil, func() error { return nil }, nil
	case "-":
		return stdout, func() error { return nil }, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "concurrent solves and per-solve worker ceiling (0 = all CPUs)")
	cacheN := fs.Int("cache", 256, "result cache capacity (completed responses)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window before in-flight solves are cancelled")
	gridCells := fs.Int("grid-cells", 4096, "maximum sweep grid cells (values × configs)")
	simTrials := fs.Int("sim-trials", 20_000, "maximum trials per simulate request")
	fleetBY := fs.Float64("max-fleet-brick-years", 0, "maximum bricks × years per fleet simulate request (0 = default 2e7)")
	maxBody := fs.Int64("max-body", 1<<20, "maximum request body bytes")
	accessLog := fs.String("access-log", "", "append JSONL access-log lines to this file (\"-\" = stdout)")
	slow := fs.Duration("slow", time.Second, "mark requests at or above this duration as slow (negative disables)")
	traceOut := fs.String("trace-out", "", "append every compute request's span tree to this file as JSONL (\"-\" = stdout)")
	pprofHTTP := fs.String("pprof-http", "", "serve net/http/pprof on this host:port (off by default)")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-serve")
		return nil
	}
	if err := core.ValidateWorkers(*workers); err != nil {
		return err
	}

	accessW, closeAccess, err := openSink(*accessLog, stdout)
	if err != nil {
		return err
	}
	defer closeAccess() //nolint:errcheck // close errors lose to run errors
	traceW, closeTrace, err := openSink(*traceOut, stdout)
	if err != nil {
		return err
	}
	defer closeTrace() //nolint:errcheck // close errors lose to run errors
	if *pprofHTTP != "" {
		if _, _, err := net.SplitHostPort(*pprofHTTP); err != nil {
			return fmt.Errorf("-pprof-http wants host:port: %w", err)
		}
		stopProf, err := obs.StartPProf(*pprofHTTP)
		if err != nil {
			return err
		}
		defer stopProf() //nolint:errcheck // close errors lose to run errors
		fmt.Fprintf(stdout, "nsr-serve: pprof on %s\n", *pprofHTTP)
	}

	srv := serve.New(serve.Options{
		Workers:            *workers,
		CacheEntries:       *cacheN,
		MaxBodyBytes:       *maxBody,
		MaxGridCells:       *gridCells,
		MaxSimTrials:       *simTrials,
		MaxFleetBrickYears: *fleetBY,
		AccessLog:          accessW,
		SlowThreshold:      *slow,
		TraceWriter:        traceW,
	})
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The effective address line is machine-readable on purpose: with
	// -addr :0 it is how tests and the e2e harness find the port.
	fmt.Fprintf(stdout, "nsr-serve: listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		fmt.Fprintf(stdout, "nsr-serve: shutting down (drain %s)\n", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		return <-errc
	}
}
