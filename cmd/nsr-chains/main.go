// Command nsr-chains inspects the Markov chains behind a configuration:
// a structural summary, the dominant degraded states, and optionally the
// full chain in Graphviz dot form.
//
// Usage:
//
//	nsr-chains [-internal none|raid5|raid6] [-ft 2] [-dot]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/params"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-chains:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-chains", flag.ContinueOnError)
	fs.SetOutput(stderr)
	internal := fs.String("internal", "none", "internal redundancy: none, raid5 or raid6")
	ft := fs.Int("ft", 2, "inter-node fault tolerance")
	dot := fs.Bool("dot", false, "emit the chain in Graphviz dot form")
	sens := fs.Bool("sens", false, "print per-transition MTTDL sensitivities (adjoint method)")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-chains")
		return nil
	}

	ir, err := core.ParseInternal(*internal)
	if err != nil {
		return err
	}
	cfg := core.Config{Internal: ir, NodeFaultTolerance: *ft}
	p := params.Baseline()
	chain, err := core.Chain(p, cfg)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(stdout, chain.DOT(cfg.String()))
		return nil
	}

	s := chain.Summarize()
	fmt.Fprintf(stdout, "%s\n", cfg)
	fmt.Fprintf(stdout, "states: %d (%d transient, %d absorbing), transitions: %d\n",
		s.States, s.Transient, s.Absorbing, s.Transitions)
	fmt.Fprintf(stdout, "rate span: %.3g .. %.3g per hour (stiffness %.3g)\n",
		s.MinRate, s.MaxRate, s.MaxRate/s.MinRate)
	if sp, err := markov.AbsorptionSparseStats(chain); err == nil {
		fmt.Fprintf(stdout, "absorption matrix: %dx%d, %d nonzeros (density %.3g), LU fill-in %d (%.2fx)\n",
			sp.N, sp.N, sp.NNZ, sp.Density, sp.FactorNNZ, sp.FillRatio)
	}

	mttdl, err := markov.MTTA(context.Background(), chain)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "exact MTTDL: %.4g h\n", mttdl)

	top, err := markov.TopStatesByTime(chain, 6)
	if err != nil {
		return err
	}
	visits, err := markov.ExpectedVisits(chain)
	if err != nil {
		return err
	}
	res, err := markov.Absorption(chain)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\ndominant states (by expected time before data loss):")
	fmt.Fprintf(stdout, "%-8s  %14s  %16s\n", "state", "time (h)", "expected visits")
	for _, name := range top {
		fmt.Fprintf(stdout, "%-8s  %14.5g  %16.5g\n", name, res.TimeInState[name], visits[name])
	}

	if *sens {
		all, err := markov.RateSensitivities(chain)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nmost influential transitions (d log MTTDL / d log rate):")
		fmt.Fprintf(stdout, "%-8s  %-8s  %12s  %12s\n", "from", "to", "rate (/h)", "elasticity")
		for i, s := range all {
			if i == 10 {
				break
			}
			fmt.Fprintf(stdout, "%-8s  %-8s  %12.4g  %+12.4f\n", s.From, s.To, s.Rate, s.Elasticity)
		}
	}
	return nil
}
