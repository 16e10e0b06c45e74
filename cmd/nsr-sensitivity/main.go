// Command nsr-sensitivity regenerates the paper's Section 7 sensitivity
// analyses (Figures 14–20) for the three surviving configurations.
//
// Usage:
//
//	nsr-sensitivity             # all figures
//	nsr-sensitivity -fig 16     # one figure
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-sensitivity:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-sensitivity", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure number 14..20 (0 = all)")
	workers := fs.Int("workers", 0, "concurrent analyses per sweep (0 = all CPUs, 1 = serial; results are identical at any setting)")
	oflags := obs.AddFlags(fs)
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-sensitivity")
		return nil
	}
	if err := core.ValidateWorkers(*workers); err != nil {
		return err
	}
	sess, err := oflags.Start()
	if err != nil {
		return err
	}
	ctx, root := sess.Trace(context.Background(), "nsr-sensitivity")
	p := params.Baseline()

	print2 := func(tables []*experiments.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Fprintln(stdout, t)
		}
		return nil
	}
	print1 := func(t *experiments.Table, _ interface{}, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t)
		return nil
	}

	run := map[int]func() error{
		14: func() error { t, err := experiments.Fig14DriveMTTF(ctx, p, *workers); return print2(t, err) },
		15: func() error { t, err := experiments.Fig15NodeMTTF(ctx, p, *workers); return print2(t, err) },
		16: func() error {
			t, pts, err := experiments.Fig16RebuildBlockSize(ctx, p, *workers)
			return print1(t, pts, err)
		},
		17: func() error { t, pts, err := experiments.Fig17LinkSpeed(ctx, p, *workers); return print1(t, pts, err) },
		18: func() error {
			t, pts, err := experiments.Fig18NodeSetSize(ctx, p, *workers)
			return print1(t, pts, err)
		},
		19: func() error {
			t, pts, err := experiments.Fig19RedundancySetSize(ctx, p, *workers)
			return print1(t, pts, err)
		},
		20: func() error {
			t, pts, err := experiments.Fig20DrivesPerNode(ctx, p, *workers)
			return print1(t, pts, err)
		},
	}
	var runErr error
	if *fig != 0 {
		fn, ok := run[*fig]
		if !ok {
			runErr = fmt.Errorf("unknown figure %d (valid: 14..20)", *fig)
		} else {
			runErr = fn()
		}
	} else {
		progress := sess.Progress("figures", 7, nil)
		for f := 14; f <= 20 && runErr == nil; f++ {
			runErr = run[f]()
			obs.ProgressAdd(progress, 1)
		}
		obs.ProgressStop(progress)
	}
	root.End()
	if err := sess.Finish(); runErr == nil {
		runErr = err
	}
	return runErr
}
