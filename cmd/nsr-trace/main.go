// Command nsr-trace generates, inspects and replays component-failure
// traces against the executable brick store.
//
// Usage:
//
//	nsr-trace -gen -out trace.csv [-nodes 16 -drives 4 -years 5 -seed 1]
//	nsr-trace -stats trace.csv
//	nsr-trace -replay trace.csv [-rebuild=true] [-scrub 720]
//	nsr-trace -montecarlo 200 [-years 20]   # loss fraction across traces
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/seedstream"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-trace:", err)
		os.Exit(1)
	}
}

// app carries the parsed flags and output streams through the subcommands.
type app struct {
	stdout, stderr io.Writer

	gen        bool
	out        string
	statsFile  string
	replayFile string
	monte      int

	nodes     int
	drives    int
	years     float64
	seed      int64
	workers   int
	nodeMTTF  float64
	driveMTTF float64
	latent    float64
	rebuild   bool
	scrubH    float64
	rsetSize  int
	ft        int
}

func run(args []string, stdout, stderr io.Writer) error {
	a := &app{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("nsr-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&a.gen, "gen", false, "generate a trace")
	fs.StringVar(&a.out, "out", "", "output file for -gen (default stdout)")
	fs.StringVar(&a.statsFile, "stats", "", "print a trace's event statistics")
	fs.StringVar(&a.replayFile, "replay", "", "replay a trace against a fresh store")
	fs.IntVar(&a.monte, "montecarlo", 0, "replay N random traces and report the loss fraction")

	fs.IntVar(&a.nodes, "nodes", 16, "nodes")
	fs.IntVar(&a.drives, "drives", 4, "drives per node")
	fs.Float64Var(&a.years, "years", 5, "mission length in years")
	fs.Int64Var(&a.seed, "seed", 1, "generation seed (-montecarlo derives trace s's seed from a splitmix64 stream over (seed, s), so traces are reproducible individually and independent even for adjacent base seeds)")
	fs.IntVar(&a.workers, "workers", 0, "concurrent trace replays for -montecarlo (0 = all CPUs; results are identical at any setting)")
	fs.Float64Var(&a.nodeMTTF, "node-mttf", 400_000, "node MTTF (hours)")
	fs.Float64Var(&a.driveMTTF, "drive-mttf", 300_000, "drive MTTF (hours)")
	fs.Float64Var(&a.latent, "latent", 0, "latent faults per drive-hour")
	fs.BoolVar(&a.rebuild, "rebuild", true, "rebuild after each failure during replay")
	fs.Float64Var(&a.scrubH, "scrub", 0, "scrub interval during replay (hours, 0 = never)")
	fs.IntVar(&a.rsetSize, "r", 8, "redundancy set size for replay")
	fs.IntVar(&a.ft, "ft", 2, "fault tolerance for replay")
	oflags := obs.AddFlags(fs)
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-trace")
		return nil
	}
	if err := core.ValidateWorkers(a.workers); err != nil {
		return err
	}
	sess, err := oflags.Start()
	if err != nil {
		return err
	}
	if sess.Registry != nil {
		sess.Registry.SetLabel("seed", strconv.FormatInt(a.seed, 10))
	}
	ctx, root := sess.Trace(context.Background(), "nsr-trace")
	var runErr error
	switch {
	case a.gen:
		runErr = a.runGen()
	case a.statsFile != "":
		runErr = a.runStats(a.statsFile)
	case a.replayFile != "":
		runErr = a.runReplay(ctx, a.replayFile, sess)
	case a.monte > 0:
		runErr = a.runMonteCarlo(ctx, a.monte, sess)
	default:
		fs.Usage()
		runErr = fmt.Errorf("pick one of -gen, -stats, -replay, -montecarlo")
	}
	root.End()
	if err := sess.Finish(); runErr == nil {
		runErr = err
	}
	return runErr
}

func (a *app) options(s int64) trace.GenerateOptions {
	return trace.GenerateOptions{
		Nodes: a.nodes, DrivesPerNode: a.drives,
		NodeMTTFHours: a.nodeMTTF, DriveMTTFHours: a.driveMTTF,
		LatentFaultsPerDriveHour: a.latent,
		HorizonHours:             a.years * params.HoursPerYear,
		Seed:                     s,
	}
}

func (a *app) newStore() (*storage.System, error) {
	sys, err := storage.NewSystem(storage.Config{
		Nodes: a.nodes, DrivesPerNode: a.drives,
		RedundancySetSize: a.rsetSize, FaultTolerance: a.ft,
		DriveCapacityBytes: 8 << 20,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 64; i++ {
		if err := sys.Put(fmt.Sprintf("obj-%03d", i), make([]byte, 8<<10)); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// replay runs tr against a fresh store under the flags' policy.
func (a *app) replay(ctx context.Context, tr *trace.Trace, reg *obs.Registry) (trace.Report, error) {
	sys, err := a.newStore()
	if err != nil {
		return trace.Report{}, err
	}
	return trace.Replay(ctx, tr, sys, trace.Policy{
		RebuildAfterEachFailure: a.rebuild,
		ScrubEveryHours:         a.scrubH,
		Obs:                     reg,
	})
}

func (a *app) runGen() error {
	tr, err := trace.Generate(a.options(a.seed))
	if err != nil {
		return err
	}
	fmt.Fprintf(a.stderr, "generating trace with seed %d\n", a.seed)
	if a.out == "" {
		return tr.WriteCSV(a.stdout)
	}
	f, err := os.Create(a.out)
	if err != nil {
		return err
	}
	if err := tr.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	// Close errors matter here: buffered CSV bytes surface only at close.
	return f.Close()
}

func readTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

func (a *app) runStats(path string) error {
	tr, err := readTrace(path)
	if err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Fprintf(a.stdout, "geometry: %d nodes × %d drives, horizon %.0f h\n", tr.Nodes, tr.DrivesPerNode, tr.HorizonHours)
	fmt.Fprintf(a.stdout, "events: %d node failures, %d drive failures, %d latent faults\n",
		st.NodeFailures, st.DriveFailures, st.LatentFaults)
	return nil
}

func (a *app) runReplay(ctx context.Context, path string, sess *obs.Session) error {
	tr, err := readTrace(path)
	if err != nil {
		return err
	}
	a.nodes, a.drives = tr.Nodes, tr.DrivesPerNode
	rep, err := a.replay(ctx, tr, sess.Registry)
	if err != nil {
		return err
	}
	fmt.Fprintf(a.stdout, "applied %d events: %d rebuilds (%d shards), %d scrubs (%d latent repairs)\n",
		rep.EventsApplied, rep.Rebuilds, rep.ShardsRebuilt, rep.Scrubs, rep.LatentRepaired)
	fmt.Fprintf(a.stdout, "objects lost: %d; unreadable at end: %d\n", rep.ObjectsLost, rep.UnreadableAtEnd)
	return nil
}

func (a *app) runMonteCarlo(ctx context.Context, n int, sess *obs.Session) error {
	// The status closure runs on the progress goroutine, so the tally is
	// atomic.
	var lossTraces, totalEvents atomic.Int64
	progress := sess.Progress("traces", int64(n), func() string {
		return fmt.Sprintf("%d with data loss", lossTraces.Load())
	})
	// Trace s is generated from seedstream.Derive(seed, s): a pure
	// function of the base seed and the index, so each trace can be
	// regenerated in isolation, and the tallies and the reported error
	// (RunIndexed's lowest failing trace) are identical at any worker
	// count. The registry and progress counter are concurrency-safe; each
	// replay's events land under its own nsr-trace.trace span.
	err := core.RunIndexed(ctx, n, a.workers, func(s int) error {
		tctx, tsp := obs.StartSpan(ctx, "nsr-trace.trace")
		tsp.SetAttr("trace", s)
		defer tsp.End()
		var rep trace.Report
		tr, err := trace.Generate(a.options(seedstream.Derive(a.seed, uint64(s))))
		if err == nil {
			rep, err = a.replay(tctx, tr, sess.Registry)
		}
		if err != nil {
			return fmt.Errorf("trace %d: %w", s, err)
		}
		totalEvents.Add(int64(rep.EventsApplied))
		if rep.UnreadableAtEnd > 0 || rep.ObjectsLost > 0 {
			lossTraces.Add(1)
		}
		obs.ProgressAdd(progress, 1)
		return nil
	})
	obs.ProgressStop(progress)
	if err != nil {
		return err
	}
	lost := lossTraces.Load()
	fmt.Fprintf(a.stdout, "%d traces × %.1f years (%d nodes × %d drives, FT %d, base seed %d): %d with data loss (%.2f%%), %.1f events/trace\n",
		n, a.years, a.nodes, a.drives, a.ft, a.seed, lost,
		100*float64(lost)/float64(n), float64(totalEvents.Load())/float64(n))
	return nil
}
