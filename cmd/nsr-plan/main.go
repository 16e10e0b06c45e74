// Command nsr-plan plans redundancy for a brick fleet. By default it
// sizes the fail-in-place over-provisioning of Section 3: how much
// spare capacity a fleet needs to survive a mission without service
// actions, and when spare nodes must be added. With -optimize it
// instead searches the discrete redundancy design space (internal RAID
// level × inter-node fault tolerance × stripe width × spares ×
// utilization × rebuild size) for the exact Pareto frontier on
// (cost, capacity, reliability), using the two-phase prune-then-confirm
// optimizer in internal/plan.
//
// Usage:
//
//	nsr-plan [-years 5] [-max-util 0.97] [-threshold 0.9]
//	nsr-plan -optimize [-target 2e-3] [-budget 0] [-min-capacity-pb 0]
//	         [-node-cost 0] [-top 0] [-json] [-workers 0]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/params"
	"repro/internal/plan"
	"repro/internal/spares"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "nsr-plan:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nsr-plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	years := fs.Float64("years", 5, "mission length in years")
	maxUtil := fs.Float64("max-util", 0.97, "maximum acceptable utilization at mission end")
	threshold := fs.Float64("threshold", 0.9, "utilization threshold for adding spare nodes")
	optimize := fs.Bool("optimize", false, "search the redundancy design space for the exact Pareto frontier instead of sizing spares")
	target := fs.Float64("target", 0, "reliability target in data-loss events/PB-year (0 = the paper's 2e-3)")
	budget := fs.Float64("budget", 0, "cost budget in drive-equivalents (0 = unbounded)")
	minCapPB := fs.Float64("min-capacity-pb", 0, "minimum logical capacity in PB (0 = no floor)")
	nodeCost := fs.Float64("node-cost", 0, "fixed per-node overhead in drive-equivalents on top of its drives")
	top := fs.Int("top", 0, "show at most this many frontier entries (0 = all)")
	jsonOut := fs.Bool("json", false, "with -optimize, emit the full result as JSON")
	workers := fs.Int("workers", 0, "concurrent exact confirmations (0 = all CPUs, 1 = serial; results are identical at any setting)")
	oflags := obs.AddFlags(fs)
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		version.Print(stdout, "nsr-plan")
		return nil
	}
	// Reject out-of-domain values up front; the negated comparisons also
	// catch NaN, which would otherwise flow silently into the spares math.
	switch {
	case !(*years >= 0):
		return fmt.Errorf("invalid -years %v: must be a non-negative number of years", *years)
	case !(*maxUtil > 0 && *maxUtil <= 1):
		return fmt.Errorf("invalid -max-util %v: must be in (0, 1]", *maxUtil)
	case !(*threshold > 0 && *threshold <= 1):
		return fmt.Errorf("invalid -threshold %v: must be in (0, 1]", *threshold)
	}

	if *optimize {
		cons := plan.Constraints{
			TargetEventsPerPBYear: *target,
			MaxCostDrives:         *budget,
			MinCapacityPB:         *minCapPB,
			NodeCostDrives:        *nodeCost,
		}
		return runOptimize(stdout, cons, plan.Options{Top: *top, Workers: *workers}, oflags, *jsonOut)
	}

	p := params.Baseline()
	mission := *years * params.HoursPerYear

	table, err := experiments.SparesPlan(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, table)

	u0, err := spares.RequiredInitialUtilization(p, mission, *maxUtil)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "required initial utilization for a %.1f-year mission at ≤%.0f%%: %.1f%%\n",
		*years, 100**maxUtil, 100*u0)

	tCross, err := spares.TimeToUtilization(p, *threshold)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "starting at %.0f%%, utilization crosses %.0f%% after %.1f years — add spare nodes by then\n",
		100*p.CapacityUtilization, 100**threshold, tCross/params.HoursPerYear)
	fmt.Fprintf(stdout, "expected attrition by then: %.1f node failures, %.1f drive failures\n",
		spares.ExpectedNodeFailures(p, tCross), spares.ExpectedDriveFailures(p, tCross))
	return nil
}

// runOptimize runs the design-space search over the stock space around
// the paper's baseline and renders the ranked exact Pareto frontier.
func runOptimize(stdout io.Writer, cons plan.Constraints, opt plan.Options, oflags *obs.Flags, jsonOut bool) error {
	if err := core.ValidateWorkers(opt.Workers); err != nil {
		return err
	}
	sess, err := oflags.Start()
	if err != nil {
		return err
	}
	ctx, root := sess.Trace(context.Background(), "nsr-plan")
	res, runErr := plan.SearchCtx(ctx, params.Baseline(), plan.DefaultSpace(), cons, opt)
	root.End()
	if runErr == nil {
		if jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			runErr = enc.Encode(res)
		} else {
			writeFrontier(stdout, res)
		}
	}
	if err := sess.Finish(); runErr == nil {
		runErr = err
	}
	return runErr
}

// writeFrontier renders the search accounting and the ranked frontier
// as a fixed-width table.
func writeFrontier(w io.Writer, res *plan.Result) {
	st := res.Stats
	fmt.Fprintf(w, "design space: %d candidates — %d infeasible, %d pruned vs target, %d dominated, %d confirmed exactly (prune ratio %.3f, %d topology groups)\n",
		st.Enumerated, st.Infeasible, st.PrunedTarget, st.PrunedDominated, st.Confirmed, st.PruneRatio, st.TopologyGroups)
	fmt.Fprintf(w, "target: %.3g data-loss events/PB-year; exact Pareto frontier: %d configurations", res.TargetEventsPerPBYear, st.FrontierSize)
	if len(res.Frontier) < st.FrontierSize {
		fmt.Fprintf(w, " (showing top %d)", len(res.Frontier))
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tinternal\tft\tR\tnodes\tspares\tutil\trebuild\tcost(drives)\tcapacity(PB)\tevents/PB-yr\tmargin")
	for i, c := range res.Frontier {
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%.2f\t%.0fKiB\t%.0f\t%.2f\t%.3g\t%.1f×\n",
			i+1, c.InternalName, c.FaultTolerance, c.RedundancySetSize, c.NodeSetSize, c.SpareNodes,
			c.Utilization, c.RebuildCommandBytes/params.KiB, c.CostDrives, c.CapacityPB,
			c.ExactEventsPerPBYear, c.MarginVsTarget)
	}
	tw.Flush()
}
