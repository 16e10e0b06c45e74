// Command nsr-report regenerates every table and figure of the paper's
// evaluation in one pass — the data backing EXPERIMENTS.md.
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
	"repro/internal/rebuild"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-report:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trials := fs.Int("trials", 1500, "simulation trials for the model-assumption ablation")
	asJSON := fs.Bool("json", false, "emit all tables as a JSON document instead of text")
	csvDir := fs.String("csv-dir", "", "also write each table to <dir>/<id>.csv")
	workers := fs.Int("workers", 0, "concurrent analyses per sweep (0 = all CPUs, 1 = serial; results are identical at any setting)")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-report")
		return nil
	}
	if err := core.ValidateWorkers(*workers); err != nil {
		return err
	}
	p := params.Baseline()
	ctx := context.Background()

	if *asJSON || *csvDir != "" {
		tables, err := experiments.All(ctx, p, *workers)
		if err != nil {
			return err
		}
		ablations, err := experiments.Ablations(ctx, p, *trials, 1, *workers)
		if err != nil {
			return err
		}
		all := append(tables, ablations...)
		if *csvDir != "" {
			if err := experiments.WriteCSVDir(*csvDir, all); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %d CSV tables to %s\n", len(all), *csvDir)
		}
		if *asJSON {
			data, err := experiments.EncodeJSON(all)
			if err != nil {
				return err
			}
			if _, err := stdout.Write(data); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Fprintln(stdout, "Reproduction report: Reliability for Networked Storage Nodes (DSN 2006)")
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "baseline: N=%d R=%d d=%d, node MTTF %.0f h, drive MTTF %.0f h, C=%.0f GB\n",
		p.NodeSetSize, p.RedundancySetSize, p.DrivesPerNode,
		p.NodeMTTFHours, p.DriveMTTFHours, p.DriveCapacityBytes/params.GB)
	rates := rebuild.Compute(p, 2)
	nodeH, nodeB := rebuild.NodeRebuildTimeHours(p, 2)
	fmt.Fprintf(stdout, "rebuild model (FT 2): node rebuild %.2f h (%s-limited), drive rebuild %.2f h, restripe %.2f h\n",
		nodeH, nodeB, 1/rates.DriveRebuild, 1/rates.Restripe)
	fmt.Fprintf(stdout, "link-speed crossover: %.2f Gb/s (paper: ~3 Gb/s)\n", rebuild.CrossoverLinkSpeedGbps(p, 2))
	fmt.Fprintln(stdout)

	tables, err := experiments.All(ctx, p, *workers)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprintln(stdout, t)
	}

	fmt.Fprintln(stdout, "--- ablations beyond the paper ---")
	fmt.Fprintln(stdout)
	ablations, err := experiments.Ablations(ctx, p, *trials, 1, *workers)
	if err != nil {
		return err
	}
	for _, t := range ablations {
		fmt.Fprintln(stdout, t)
	}

	fmt.Fprintln(stdout, "--- degraded-mode exposure (exact chains) ---")
	for _, cfg := range core.SensitivityConfigs() {
		exp, err := core.Exposure(p, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, exp)
	}
	fmt.Fprintln(stdout)

	claims, err := experiments.ClaimsTable(ctx, p, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, claims)
	return nil
}
