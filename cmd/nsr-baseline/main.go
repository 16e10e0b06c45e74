// Command nsr-baseline regenerates Figure 13: the baseline comparison of
// the nine redundancy configurations in data-loss events per PB-year.
//
// Usage:
//
//	nsr-baseline [-exact] [-node-mttf h] [-drive-mttf h] [-n nodes]
//	             [-r set-size] [-d drives] [-target events/PB-yr]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/params"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-baseline:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-baseline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := params.Baseline()
	exact := fs.Bool("exact", false, "solve the exact Markov chains instead of the paper's closed forms")
	fs.Float64Var(&p.NodeMTTFHours, "node-mttf", p.NodeMTTFHours, "node MTTF in hours")
	fs.Float64Var(&p.DriveMTTFHours, "drive-mttf", p.DriveMTTFHours, "drive MTTF in hours")
	fs.IntVar(&p.NodeSetSize, "n", p.NodeSetSize, "node set size N")
	fs.IntVar(&p.RedundancySetSize, "r", p.RedundancySetSize, "redundancy set size R")
	fs.IntVar(&p.DrivesPerNode, "d", p.DrivesPerNode, "drives per node")
	targetRate := fs.Float64("target", core.PaperTarget().EventsPerPBYear, "reliability target in events per PB-year")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-baseline")
		return nil
	}

	method := core.MethodClosedForm
	if *exact {
		method = core.MethodExactChain
	}
	results, err := core.AnalyzeAll(context.Background(), p, core.BaselineConfigs(), method, 0)
	if err != nil {
		return err
	}
	target := core.Target{EventsPerPBYear: *targetRate}
	t := &experiments.Table{
		ID:      "fig13",
		Title:   fmt.Sprintf("Baseline comparison (%s method, target %.2g events/PB-yr)", method, *targetRate),
		Columns: []string{"configuration", "MTTDL (h)", "MTTDL (yr)", "events/PB-yr", "margin", "meets target"},
	}
	for _, r := range results {
		meets := "no"
		if target.Meets(r) {
			meets = "yes"
		}
		t.AddRow(
			r.Config.String(),
			fmt.Sprintf("%.3g", r.MTTDLHours),
			fmt.Sprintf("%.3g", r.MTTDLHours/params.HoursPerYear),
			fmt.Sprintf("%.3g", r.EventsPerPBYear),
			fmt.Sprintf("%.3g", target.Margin(r)),
			meets,
		)
	}
	fmt.Fprint(stdout, t)
	return nil
}
