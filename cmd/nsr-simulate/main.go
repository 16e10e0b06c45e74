// Command nsr-simulate cross-validates the analytic models by simulation.
//
// Two modes:
//
//	-mode des     discrete-event simulation of the full system (nodes,
//	              drives, concurrent rebuilds, restripes) in a
//	              failure-accelerated regime, against the exact chain;
//	-mode biased  rare-event estimation of the *baseline* chains with
//	              balanced failure biasing, against dense linear algebra.
//
// A third, flag-selected mode simulates an entire fleet at baseline
// rates: -fleet runs the aggregating fleet estimator over -bricks
// storage nodes for -years years (a million-brick decade completes in
// seconds) and compares the observed per-node-set MTTDL against the
// exact chain. -ft and -internal pick the fleet's configuration.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"

	"repro/internal/closedform"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/seedstream"
	"repro/internal/sim"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "des", "validation mode: des or biased")
	trials := fs.Int("trials", 2000, "DES trials / 10× biased cycles")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "worker goroutines (0 = all CPUs; 1 = the serial estimator, reproducing earlier releases exactly; >1 uses per-trial seed streams, bit-identical at any worker count)")
	fleet := fs.Bool("fleet", false, "fleet mode: simulate -bricks storage nodes for -years years at baseline rates (overrides -mode)")
	bricks := fs.Int("bricks", 1_000_000, "fleet size in bricks (storage nodes)")
	years := fs.Float64("years", 10, "fleet mission horizon in years")
	ft := fs.Int("ft", 1, "fleet config: inter-node fault tolerance")
	internal := fs.String("internal", "none", "fleet config: internal redundancy (none, raid5, raid6)")
	oflags := obs.AddFlags(fs)
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-simulate")
		return nil
	}
	if err := core.ValidateWorkers(*workers); err != nil {
		return err
	}
	sess, err := oflags.Start()
	if err != nil {
		return err
	}
	if sess.Registry != nil {
		sess.Registry.SetLabel("seed", strconv.FormatInt(*seed, 10))
		sess.Registry.SetLabel("mode", *mode)
	}
	// The effective seed makes every run reproducible from its logs.
	fmt.Fprintf(stdout, "seed %d\n", *seed)
	ctx, root := sess.Trace(context.Background(), "nsr-simulate")
	var runErr error
	switch {
	case *fleet:
		runErr = runFleet(ctx, stdout, fleetOpts{
			bricks: *bricks, years: *years,
			ft: *ft, internal: *internal,
			seed: *seed, workers: *workers,
		}, sess)
	case *mode == "des":
		runErr = runDES(ctx, stdout, *trials, *seed, *workers, sess)
	case *mode == "biased":
		runErr = runBiased(ctx, stdout, *trials*10, *seed, *workers, sess)
	default:
		runErr = fmt.Errorf("unknown mode %q", *mode)
	}
	root.End()
	if err := sess.Finish(); runErr == nil {
		runErr = err
	}
	return runErr
}

// runDES compares the full-system simulator against exact chain solutions
// in an accelerated-failure regime (the baseline itself is unreachable by
// naive simulation).
//
// workers == 1 runs the original serial estimator (one RNG shared across
// every scenario and trial), byte-for-byte compatible with earlier
// releases. Any other value runs the parallel estimator, whose per-trial
// seed streams make the output identical at every worker count — a
// different (equally valid) sample than the serial path draws.
func runDES(ctx context.Context, stdout io.Writer, trials int, seed int64, workers int, sess *obs.Session) error {
	rng := rand.New(rand.NewSource(seed))
	fmt.Fprintln(stdout, "Full-system DES vs exact Markov chain (accelerated failures)")
	fmt.Fprintln(stdout, "config                         chain MTTDL      DES MTTDL        ratio")
	fmt.Fprintln(stdout, "-----------------------------  ---------------  ---------------  -----")

	type scenario struct {
		name  string
		sc    sim.Scenario
		chain *markov.Chain
	}
	nir := func(t int) scenario {
		sc := sim.Scenario{
			N: 8, R: 4, D: 3, T: t,
			LambdaN: 1e-3, LambdaD: 2e-3, MuN: 2, MuD: 5,
			CHER: 0.01, Repair: sim.RepairExponential,
		}
		in := closedform.NIRInputs{
			N: sc.N, R: sc.R, D: sc.D,
			LambdaN: sc.LambdaN, LambdaD: sc.LambdaD,
			MuN: sc.MuN, MuD: sc.MuD, CHER: sc.CHER,
		}
		return scenario{
			name:  fmt.Sprintf("FT %d, no internal RAID", t),
			sc:    sc,
			chain: model.NIRChain(in, t),
		}
	}
	ir := func() scenario {
		sc := sim.Scenario{
			N: 8, R: 4, D: 4, T: 1, ParityDrives: 1,
			LambdaN: 1e-3, LambdaD: 5e-3, MuN: 2, MuD: 5, MuRestripe: 5,
			CHER: 0.02, Repair: sim.RepairExponential,
		}
		arr := closedform.ArrayInputs{D: sc.D, LambdaD: sc.LambdaD, MuD: sc.MuRestripe, CHER: sc.CHER}
		in := closedform.IRInputs{
			N: sc.N, R: sc.R,
			LambdaN:      sc.LambdaN,
			LambdaArray:  closedform.ArrayFailureRate(1, arr),
			LambdaSector: closedform.SectorErrorRate(1, arr),
			MuN:          sc.MuN,
		}
		return scenario{name: "FT 1, internal RAID 5", sc: sc, chain: model.IRChain(in, 1)}
	}
	scenarios := []scenario{nir(1), nir(2), ir()}
	var m *sim.Metrics
	if sess.Registry != nil {
		m = sim.NewMetrics(sess.Registry)
	}
	status := func() string {
		if m == nil {
			return ""
		}
		return fmt.Sprintf("%d loss events, %d sim events", m.Missions.Value(), m.Events.Value())
	}
	progress := sess.Progress("missions", int64(trials*len(scenarios)), status)
	ob := sim.Observer{
		Metrics: m,
		OnMission: func(int, sim.LossResult) {
			obs.ProgressAdd(progress, 1)
		},
	}
	for si, s := range scenarios {
		want, err := markov.MTTA(ctx, s.chain)
		if err != nil {
			obs.ProgressStop(progress)
			return err
		}
		var est sim.Estimate
		if workers == 1 {
			est, err = sim.EstimateMTTDL(ctx, s.sc, rng, trials, 10_000_000, ob)
		} else {
			// Each scenario gets its own base seed from the stream, so
			// any scenario's run can be reproduced in isolation.
			est, err = sim.EstimateMTTDLParallel(
				ctx, s.sc, seedstream.Derive(seed, uint64(si)), trials, 10_000_000, workers, ob)
		}
		if err != nil {
			obs.ProgressStop(progress)
			return err
		}
		fmt.Fprintf(stdout, "%-29s  %-15.6g  %7.6g ± %-4.2g  %.3f\n",
			s.name, want, est.MeanHours, 1.96*est.StdErr, est.MeanHours/want)
	}
	obs.ProgressStop(progress)
	fmt.Fprintln(stdout, "\nratios near 1 validate the chains; FT 2 ratios above 1 quantify the")
	fmt.Fprintln(stdout, "chains' conservative last-in-first-out repair assumption.")
	return nil
}

// runBiased estimates the baseline chains' MTTDL by balanced failure
// biasing and compares with the dense linear-algebra solution. Worker
// semantics match runDES: 1 = legacy serial sample, otherwise the
// worker-count-independent parallel estimator.
func runBiased(ctx context.Context, stdout io.Writer, cycles int, seed int64, workers int, sess *obs.Session) error {
	rng := rand.New(rand.NewSource(seed))
	p := params.Baseline()
	fmt.Fprintln(stdout, "Balanced-failure-biasing estimator vs dense LU solution (baseline chains)")
	fmt.Fprintln(stdout, "config                   exact MTTDL (h)  biased estimate (h)    rel CI")
	fmt.Fprintln(stdout, "-----------------------  ---------------  ---------------------  ------")
	configs := core.SensitivityConfigs()
	progress := sess.Progress("configs", int64(len(configs)), nil)
	defer obs.ProgressStop(progress)
	for ci, cfg := range configs {
		ch, err := core.Chain(p, cfg)
		if err != nil {
			return err
		}
		want, err := markov.MTTA(ctx, ch)
		if err != nil {
			return err
		}
		var est sim.BiasedEstimate
		if workers == 1 {
			est, err = sim.EstimateMTTABiased(ctx, ch, rng, cycles, 0.5, sim.RepairThreshold(ch))
		} else {
			est, err = sim.EstimateMTTABiasedParallel(
				ctx, ch, seedstream.Derive(seed, uint64(ci)), cycles, 0.5, sim.RepairThreshold(ch), workers)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-23s  %-15.6g  %9.6g ± %-8.2g  %.1f%%\n",
			cfg, want, est.MTTA, 1.96*est.StdErr, 100*est.RelHalfWidth95())
		obs.ProgressAdd(progress, 1)
	}
	return nil
}

// fleetOpts bundles the -fleet flag group.
type fleetOpts struct {
	bricks   int
	years    float64
	ft       int
	internal string
	seed     int64
	workers  int
}

// runFleet simulates the whole fleet at baseline rates with the
// aggregating estimator and compares the observed per-node-set MTTDL
// against the exact chain's MTTA.
func runFleet(ctx context.Context, stdout io.Writer, o fleetOpts, sess *obs.Session) error {
	ir, err := core.ParseInternal(o.internal)
	if err != nil {
		return err
	}
	p := params.Baseline()
	cfg := core.Config{Internal: ir, NodeFaultTolerance: o.ft}
	if err := cfg.Validate(); err != nil {
		return err
	}
	sc, err := sim.ScenarioFromConfig(p, cfg, sim.RepairExponential)
	if err != nil {
		return err
	}
	var m *sim.FleetMetrics
	if sess.Registry != nil {
		m = sim.NewFleetMetrics(sess.Registry)
	}
	horizon := o.years * params.HoursPerYear
	fmt.Fprintf(stdout, "Fleet DES: %d bricks, %g years, config %s\n", o.bricks, o.years, cfg)
	est, err := sim.EstimateFleet(ctx, sc, o.bricks, horizon, o.seed, o.workers, 0, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "node sets        %d (N = %d bricks each)\n", est.NodeSets, sc.N)
	fmt.Fprintf(stdout, "events           %d\n", est.Events)
	fmt.Fprintf(stdout, "splits / merges  %d / %d (peak live records %d)\n", est.Splits, est.Merges, est.PeakLiveRecords)
	fmt.Fprintf(stdout, "data losses      %d", est.Losses)
	for c := sim.LossNone; c <= sim.LossRestripeUE; c++ {
		if n := est.CauseCount(c); n > 0 {
			fmt.Fprintf(stdout, "  %s=%d", c, n)
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "loss rate        %.6g / brick-year (± %.2g)\n", est.LossesPerBrickYear, 1.96*est.StdErr)
	ch, err := core.Chain(p, cfg)
	if err != nil {
		return err
	}
	want, err := markov.MTTA(ctx, ch)
	if err != nil {
		return err
	}
	if est.Losses > 0 {
		fmt.Fprintf(stdout, "per-set MTTDL    %.6g h observed vs %.6g h chain (ratio %.3f)\n",
			est.MTTDLHours, want, est.MTTDLHours/want)
	} else {
		fmt.Fprintf(stdout, "per-set MTTDL    no losses observed (chain MTTA %.6g h)\n", want)
	}
	return nil
}
