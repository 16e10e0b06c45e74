package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/closedform"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/obs"
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

// AnalyzeCtx is Analyze carrying the caller's context for tracing: when
// the context holds an active span (obs.StartSpan), chain acquisition
// ("chain.freeze" — a pooled refiller's refill, or its first build) and the
// exact solve with its sparse stages are attributed as child spans.
// The context is not a cancellation point — one analysis is a single
// closed-form evaluation or one chain solve; results are identical to
// Analyze.
func AnalyzeCtx(ctx context.Context, p params.Parameters, cfg Config, method Method) (Result, error) {
	var (
		pr  analysisPrep
		tl  rebuild.Tally
		est Estimate
		err error
	)
	if method == MethodClosedForm {
		est, err = pr.closedForm(&p, cfg, &tl)
	} else {
		est, err = pr.solve(ctx, &p, cfg, method, &tl)
	}
	tl.Flush(ctx)
	if err != nil {
		return Result{}, err
	}
	return pr.result(&p, cfg, method, est), nil
}

// solve is AnalyzeCtx for the exact methods: prep, then one chain solve
// or one exact recurrence, then the usability guard.
func (pr *analysisPrep) solve(ctx context.Context, p *params.Parameters, cfg Config, method Method, tl *rebuild.Tally) (Estimate, error) {
	if err := analyzePrep(pr, p, cfg, tl); err != nil {
		return Estimate{}, err
	}
	k, nir := pr.k, cfg.Internal == InternalNone
	var mttdl float64
	switch {
	case method == MethodExactChain:
		_, fsp := obs.StartSpan(ctx, "chain.freeze")
		var ch *markov.Chain
		if nir {
			r := model.AcquireNIRRefiller(pr.nir, k)
			defer r.Release()
			ch = r.Chain()
		} else {
			r := model.AcquireIRRefiller(pr.ir, k)
			defer r.Release()
			ch = r.Chain()
		}
		fsp.End()
		var err error
		if mttdl, err = markov.MTTA(ctx, ch); err != nil {
			return Estimate{}, chainSolveError(nir, err)
		}
	case method == MethodExactStable && nir:
		mttdl = closedform.NIRMTTDLRecursive(pr.nir, k)
	case method == MethodExactStable:
		mttdl = closedform.IRMTTDLExact(pr.ir, k)
	default:
		return Estimate{}, fmt.Errorf("core: unknown method %d", int(method))
	}
	return estimate(p, cfg, mttdl)
}

// Estimate is one analysis's headline figures: what the design-space
// search needs of a candidate, and what Result reports.
type Estimate struct {
	MTTDLHours        float64
	EventsPerPBYear   float64
	LogicalCapacityPB float64
}

// ClosedForm is the paper's closed-form evaluation of (p, cfg) — the
// one the MethodClosedForm branch of AnalyzeCtx runs, with the same
// validation, the same geometry checks and error messages, and the same
// floats — without building a Result: p is read through a pointer and
// nothing is copied but the model inputs. Its rate computation is held
// in tl (rebuild.Tally) for the caller to flush, so a caller evaluating
// a block of candidates records the block once. Up to fault tolerance
// 6 it does not allocate unless it fails.
func ClosedForm(p *params.Parameters, cfg Config, tl *rebuild.Tally) (Estimate, error) {
	var pr analysisPrep
	return pr.closedForm(p, cfg, tl)
}

// closedForm is ClosedForm leaving the prepared inputs in pr for
// AnalyzeCtx's Result.
func (pr *analysisPrep) closedForm(p *params.Parameters, cfg Config, tl *rebuild.Tally) (Estimate, error) {
	if err := analyzePrep(pr, p, cfg, tl); err != nil {
		return Estimate{}, err
	}
	var mttdl float64
	if cfg.Internal == InternalNone {
		mttdl = closedform.NIRMTTDLGeneral(pr.nir, pr.k)
	} else {
		mttdl = closedform.IRMTTDL(pr.ir, pr.k)
	}
	return estimate(p, cfg, mttdl)
}

// analysisPrep is the solver-independent half of one analysis: the
// computed repair and internal-array rates and the model inputs of the
// configuration's chain family. AnalyzeCtx pairs it with one closed
// form, chain build or recurrence; the batched sweep engine prepares a
// whole chunk of these, then solves the chunk through one
// markov.BatchSolver.
type analysisPrep struct {
	k                                 int
	rates                             rebuild.Rates
	arrayFailureRate, sectorErrorRate float64
	nir                               closedform.NIRInputs
	ir                                closedform.IRInputs
}

// analyzePrep validates (p, cfg) and computes everything upstream of the
// MTTDL solve into pr, in the exact order AnalyzeCtx always has, so error
// messages and float results are unchanged. It fills pr in place (the
// batched engine's chunk slots are reused cell after cell), setting the
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

// AnalyzeAll runs AnalyzeCtx for each configuration, preserving order.
// The configurations are analyzed on a pool of workers goroutines (0 =
// runtime.NumCPU(); see RunIndexed); results and first-error semantics
// are identical to the serial loop at any worker count. The context is
// polled between configurations, so a cancelled call stops within one
// analysis and returns ctx.Err().
func AnalyzeAll(ctx context.Context, p params.Parameters, cfgs []Config, method Method, workers int) ([]Result, error) {
	out := make([]Result, len(cfgs))
	err := RunIndexed(ctx, len(cfgs), workers, func(i int) error {
		r, err := AnalyzeCtx(ctx, p, cfgs[i], method)
		if err != nil {
			return fmt.Errorf("core: %v: %w", cfgs[i], err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
