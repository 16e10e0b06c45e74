package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/closedform"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// Method selects how the node-level model is solved.
type Method int

const (
	// MethodClosedForm evaluates the paper's printed approximations
	// (Sections 4.2, 4.3, 5.2 and the appendix theorem). This is what the
	// paper's figures use.
	MethodClosedForm Method = iota + 1
	// MethodExactChain builds the corresponding Markov chain and solves
	// it exactly with dense linear algebra. The internal-array rates λ_D
	// and λ_S feeding the hierarchical model are still the paper's closed
	// forms (the hierarchy itself is the paper's modelling choice).
	MethodExactChain
	// MethodExactStable evaluates the same exact solutions through
	// cancellation-free recurrences (the appendix's determinant recursion
	// for no-internal-RAID; the classical first-passage recurrence for
	// the internal-RAID birth-death chains). Numerically superior to the
	// dense solve for deep fault tolerance.
	MethodExactStable
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodClosedForm:
		return "closed-form"
	case MethodExactChain:
		return "exact-chain"
	case MethodExactStable:
		return "exact-stable"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod maps a method name — what String returns: "closed-form",
// "exact-chain" or "exact-stable" — onto its Method.
func ParseMethod(name string) (Method, error) {
	for _, m := range []Method{MethodClosedForm, MethodExactChain, MethodExactStable} {
		if name == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q (valid: closed-form, exact-chain, exact-stable)", name)
}

// Result is the reliability analysis of one configuration.
type Result struct {
	Config Config
	Params params.Parameters
	Method Method

	// MTTDLHours is the mean time to data loss of the whole system.
	MTTDLHours float64
	// EventsPerPBYear is the paper's headline metric: expected data-loss
	// events per year, normalized per petabyte of logical capacity.
	EventsPerPBYear float64
	// LogicalCapacityPB is the user-visible capacity used for the
	// normalization.
	LogicalCapacityPB float64
	// Rates records the repair rates the model used.
	Rates rebuild.Rates
	// ArrayFailureRate (λ_D) and SectorErrorRate (λ_S) are the internal
	// array rates for RAID configurations (zero for InternalNone; λ_D
	// then reports d·λ_d, the raw node drive failure load, for
	// diagnostics).
	ArrayFailureRate, SectorErrorRate float64
}

// Analyze computes the reliability of one configuration under the given
// parameters.
func Analyze(p params.Parameters, cfg Config, method Method) (Result, error) {
	return AnalyzeCtx(context.Background(), p, cfg, method)
}

// AnalyzeCtx is Analyze carrying the caller's context: it runs the
// analysis as a one-cell chunk of the engine (AnalyzeRanges), so when
// the context holds an active span (obs.StartSpan) an exact-chain solve
// is attributed as one "markov.batch" child with cells=1, and its
// metrics land on the span's registry. A cancelled context returns
// ctx.Err(); otherwise results are identical to Analyze.
func AnalyzeCtx(ctx context.Context, p params.Parameters, cfg Config, method Method) (Result, error) {
	ps, out := []params.Parameters{p}, []Result{{}}
	var err error
	if method == MethodExactChain {
		bc := chunkPool.Get().(*batchChunk)
		_, err = bc.analyze(ctx, cfg, method, ps, out)
		chunkPool.Put(bc)
	} else {
		_, err = evaluateCells(ctx, cfg, method, ps, out)
	}
	if err != nil {
		return Result{}, err
	}
	return out[0], nil
}

// Estimate is one analysis's headline figures: what the design-space
// search needs of a candidate, and what Result reports.
type Estimate struct {
	MTTDLHours        float64
	EventsPerPBYear   float64
	LogicalCapacityPB float64
}

// ClosedForm is the paper's closed-form evaluation of (p, cfg) — the
// one a MethodClosedForm analysis runs, with the same validation, the
// same geometry checks and error messages, and the same floats —
// without building a Result: p is read through a pointer and nothing is
// copied but the model inputs. Its rate computation is held in tl
// (rebuild.Tally) for the caller to flush, so a caller evaluating a
// block of candidates records the block once. Up to fault tolerance 6
// it does not allocate unless it fails.
func ClosedForm(p *params.Parameters, cfg Config, tl *rebuild.Tally) (Estimate, error) {
	var pr analysisPrep
	return pr.evaluate(p, cfg, MethodClosedForm, tl)
}

// evaluate is one analysis by a method without a chain: prep, then the
// closed form or the cancellation-free recursion, then the usability
// guard, leaving the prepared inputs in pr for the Result.
func (pr *analysisPrep) evaluate(p *params.Parameters, cfg Config, method Method, tl *rebuild.Tally) (Estimate, error) {
	if err := analyzePrep(pr, p, cfg, tl); err != nil {
		return Estimate{}, err
	}
	nir := cfg.Internal == InternalNone
	var mttdl float64
	switch {
	case method == MethodClosedForm && nir:
		mttdl = closedform.NIRMTTDLGeneral(pr.nir, pr.k)
	case method == MethodClosedForm:
		mttdl = closedform.IRMTTDL(pr.ir, pr.k)
	case method == MethodExactStable && nir:
		mttdl = closedform.NIRMTTDLRecursive(pr.nir, pr.k)
	case method == MethodExactStable:
		mttdl = closedform.IRMTTDLExact(pr.ir, pr.k)
	default:
		return Estimate{}, fmt.Errorf("core: unknown method %d", int(method))
	}
	return estimate(p, cfg, mttdl)
}

// analysisPrep is the solver-independent half of one analysis: the
// computed repair and internal-array rates and the model inputs of the
// configuration's chain family. A closed-form or exact-stable cell pairs
// it with one closed form or recurrence; an exact-chain chunk prepares
// one per cell, then solves the chunk through one markov.BatchSolver.
type analysisPrep struct {
	k                                 int
	rates                             rebuild.Rates
	arrayFailureRate, sectorErrorRate float64
	nir                               closedform.NIRInputs
	ir                                closedform.IRInputs
}

// analyzePrep validates (p, cfg) and computes everything upstream of the
// MTTDL solve into pr, in one fixed order, so error messages and float
// results are the same on every route. It fills pr in place (the
// engine's chunk slots are reused cell after cell), setting the
// inputs of cfg's chain family only; on error pr is unspecified. The
// rate computation is tallied in tl.
func analyzePrep(pr *analysisPrep, p *params.Parameters, cfg Config, tl *rebuild.Tally) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	k := cfg.NodeFaultTolerance
	switch {
	case p.NodeSetSize <= k+1:
		return fmt.Errorf("core: node set size %d too small for fault tolerance %d", p.NodeSetSize, k)
	case p.RedundancySetSize <= k:
		return fmt.Errorf("core: redundancy set size %d too small for fault tolerance %d", p.RedundancySetSize, k)
	case cfg.Internal != InternalNone && p.DrivesPerNode <= cfg.Internal.ParityDrives():
		return fmt.Errorf("core: %d drives per node cannot form %s", p.DrivesPerNode, cfg.Internal)
	}

	rates := tl.Compute(p, k)
	pr.k = k
	pr.rates = rates
	if cfg.Internal == InternalNone {
		pr.nir = closedform.NIRInputs{
			N:       p.NodeSetSize,
			R:       p.RedundancySetSize,
			D:       p.DrivesPerNode,
			LambdaN: p.NodeFailureRate(),
			LambdaD: p.DriveFailureRate(),
			MuN:     rates.NodeRebuild,
			MuD:     rates.DriveRebuild,
			CHER:    p.CHER(),
		}
		pr.arrayFailureRate = float64(p.DrivesPerNode) * p.DriveFailureRate()
		pr.sectorErrorRate = 0
	} else {
		m := cfg.Internal.ParityDrives()
		arr := closedform.ArrayInputs{
			D:       p.DrivesPerNode,
			LambdaD: p.DriveFailureRate(),
			MuD:     rates.Restripe,
			CHER:    p.CHER(),
		}
		pr.arrayFailureRate = closedform.ArrayFailureRate(m, arr)
		pr.sectorErrorRate = closedform.SectorErrorRate(m, arr)
		pr.ir = closedform.IRInputs{
			N:            p.NodeSetSize,
			R:            p.RedundancySetSize,
			LambdaN:      p.NodeFailureRate(),
			LambdaArray:  pr.arrayFailureRate,
			LambdaSector: pr.sectorErrorRate,
			MuN:          rates.NodeRebuild,
		}
	}
	return nil
}

// chainSolveError wraps a chain-solve failure in AnalyzeCtx's wording.
func chainSolveError(nir bool, err error) error {
	if nir {
		return fmt.Errorf("core: solving NIR chain: %w", err)
	}
	return fmt.Errorf("core: solving IR chain: %w", err)
}

// estimate applies the usability guard and the capacity normalization
// to a solved MTTDL.
func estimate(p *params.Parameters, cfg Config, mttdl float64) (Estimate, error) {
	if mttdl <= 0 || math.IsNaN(mttdl) || math.IsInf(mttdl, 0) {
		return Estimate{}, fmt.Errorf("core: %v MTTDL %g is numerically unusable (float64 exhausted for this configuration; use MethodClosedForm)", cfg, mttdl)
	}
	c := logicalCapacityPB(p, cfg)
	return Estimate{
		MTTDLHours:        mttdl,
		EventsPerPBYear:   params.HoursPerYear / mttdl / c,
		LogicalCapacityPB: c,
	}, nil
}

// result assembles the Result of one successful analysis.
func (pr *analysisPrep) result(p *params.Parameters, cfg Config, method Method, est Estimate) Result {
	return Result{
		Config:            cfg,
		Params:            *p,
		Method:            method,
		MTTDLHours:        est.MTTDLHours,
		EventsPerPBYear:   est.EventsPerPBYear,
		LogicalCapacityPB: est.LogicalCapacityPB,
		Rates:             pr.rates,
		ArrayFailureRate:  pr.arrayFailureRate,
		SectorErrorRate:   pr.sectorErrorRate,
	}
}

// LogicalCapacityPB returns the user-visible capacity of the system in
// petabytes: raw capacity × inter-node data fraction (R-t)/R × internal
// array data fraction (d-m)/d × capacity utilization (the rest is
// fail-in-place spare).
func LogicalCapacityPB(p params.Parameters, cfg Config) float64 {
	return logicalCapacityPB(&p, cfg)
}

// logicalCapacityPB is LogicalCapacityPB reading p through a pointer.
func logicalCapacityPB(p *params.Parameters, cfg Config) float64 {
	r := float64(p.RedundancySetSize)
	t := float64(cfg.NodeFaultTolerance)
	d := float64(p.DrivesPerNode)
	m := float64(cfg.Internal.ParityDrives())
	return p.RawSystemBytes() * (r - t) / r * (d - m) / d * p.CapacityUtilization / params.PB
}

// AnalyzeAll analyzes p under each configuration, preserving order: one
// engine chunk per configuration (AnalyzeRanges), fanned over a pool of
// workers goroutines (0 = runtime.NumCPU()); results and first-error
// semantics are identical to the serial loop at any worker count. The
// context is polled between configurations, so a cancelled call stops
// within one analysis and returns ctx.Err().
func AnalyzeAll(ctx context.Context, p params.Parameters, cfgs []Config, method Method, workers int) ([]Result, error) {
	out := make([]Result, len(cfgs))
	_, col, err := AnalyzeRanges(ctx, method, columns(cfgs, 1), workers,
		func(_, _ int, q *params.Parameters) { *q = p },
		func(ch CellRange, res []Result) { out[ch.Col] = res[0] })
	if err != nil {
		if col >= 0 {
			err = fmt.Errorf("core: %v: %w", cfgs[col], err)
		}
		return nil, err
	}
	return out, nil
}
