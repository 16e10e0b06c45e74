// Command nsr-mttdl analyzes one redundancy configuration and prints the
// result as JSON — the scripting-friendly entry point.
//
// Usage:
//
//	nsr-mttdl [-internal none|raid5|raid6] [-ft 2] [-method closed-form]
//	          [-node-mttf h] [-drive-mttf h] [-n 64] [-r 8] [-d 12]
//	          [-block bytes] [-link gbps]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/version"
)

// output is the JSON document printed on success.
type output struct {
	Configuration   string  `json:"configuration"`
	Method          string  `json:"method"`
	MTTDLHours      float64 `json:"mttdl_hours"`
	MTTDLYears      float64 `json:"mttdl_years"`
	EventsPerPBYear float64 `json:"events_per_pb_year"`
	CapacityPB      float64 `json:"logical_capacity_pb"`
	MeetsTarget     bool    `json:"meets_paper_target"`
	TargetMargin    float64 `json:"target_margin"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-mttdl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-mttdl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := params.Baseline()
	internal := fs.String("internal", "raid5", "internal redundancy: none, raid5 or raid6")
	ft := fs.Int("ft", 2, "inter-node fault tolerance")
	methodName := fs.String("method", "closed-form", "closed-form, exact-chain or exact-stable")
	fs.Float64Var(&p.NodeMTTFHours, "node-mttf", p.NodeMTTFHours, "node MTTF in hours")
	fs.Float64Var(&p.DriveMTTFHours, "drive-mttf", p.DriveMTTFHours, "drive MTTF in hours")
	fs.IntVar(&p.NodeSetSize, "n", p.NodeSetSize, "node set size")
	fs.IntVar(&p.RedundancySetSize, "r", p.RedundancySetSize, "redundancy set size")
	fs.IntVar(&p.DrivesPerNode, "d", p.DrivesPerNode, "drives per node")
	fs.Float64Var(&p.RebuildCommandBytes, "block", p.RebuildCommandBytes, "rebuild command size in bytes")
	fs.Float64Var(&p.LinkSpeedGbps, "link", p.LinkSpeedGbps, "link speed in Gb/s")
	oflags := obs.AddFlags(fs)
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-mttdl")
		return nil
	}
	sess, err := oflags.Start()
	if err != nil {
		return err
	}

	ir, err := core.ParseInternal(*internal)
	if err != nil {
		return err
	}
	method, err := core.ParseMethod(*methodName)
	if err != nil {
		return err
	}
	cfg := core.Config{Internal: ir, NodeFaultTolerance: *ft}
	ctx, root := sess.Trace(context.Background(), "nsr-mttdl")
	r, err := core.AnalyzeCtx(ctx, p, cfg, method)
	root.End()
	if err != nil {
		sess.Finish() //nolint:errcheck // the analysis error wins
		return err
	}
	target := core.PaperTarget()
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	encErr := enc.Encode(output{
		Configuration:   cfg.String(),
		Method:          method.String(),
		MTTDLHours:      r.MTTDLHours,
		MTTDLYears:      r.MTTDLHours / params.HoursPerYear,
		EventsPerPBYear: r.EventsPerPBYear,
		CapacityPB:      r.LogicalCapacityPB,
		MeetsTarget:     target.Meets(r),
		TargetMargin:    target.Margin(r),
	})
	if err := sess.Finish(); encErr == nil {
		encErr = err
	}
	return encErr
}
