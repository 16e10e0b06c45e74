// Package scrub extends the paper's uncorrectable-error model with latent
// sector faults and periodic scrubbing — the mechanism its related work
// (Xin et al. [7]) mentions but does not characterize.
//
// The paper's HER parameter charges hard errors at read time. Real drives
// additionally *accumulate* latent sector faults that stay invisible until
// the sector is next read — which may be exactly the critical rebuild that
// cannot tolerate them. A scrubber sweeps each drive every S hours,
// detecting latent faults while redundancy is still available and
// repairing them.
//
// Model: latent faults arrive per drive as a Poisson process of rate ρ
// (faults per drive-hour). A scrub resets the drive's latent population.
// At a uniformly random time the expected outstanding latent faults per
// drive are ρ·S/2, so a full-drive read during a rebuild encounters
//
//	CHER_eff = C·HER + ρ·S/2
//
// expected errors. Substituting CHER_eff into the paper's formulas yields
// MTTDL as a function of the scrub interval: reliability degrades linearly
// in S and saturates at the instantaneous-HER floor as S → 0.
package scrub

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/params"
)

// Options parameterizes the latent-fault model.
type Options struct {
	// LatentFaultsPerDriveHour is ρ. A common order of magnitude is one
	// latent fault per drive-year: ~1.1e-4 per drive-hour.
	LatentFaultsPerDriveHour float64
	// ScrubIntervalHours is S, the time between completed scrubs of the
	// same drive. Zero disables scrubbing benefits (treated as +Inf is
	// not meaningful; use a finite interval).
	ScrubIntervalHours float64
}

// Validate reports the first problem.
func (o Options) Validate() error {
	if o.LatentFaultsPerDriveHour < 0 {
		return fmt.Errorf("scrub: negative latent fault rate")
	}
	if o.ScrubIntervalHours < 0 {
		return fmt.Errorf("scrub: negative scrub interval")
	}
	return nil
}

// EffectiveCHER returns the paper's C·HER augmented with the expected
// outstanding latent faults per drive under the scrubbing policy.
func EffectiveCHER(p params.Parameters, o Options) (float64, error) {
	if err := o.Validate(); err != nil {
		return 0, err
	}
	return p.CHER() + o.LatentFaultsPerDriveHour*o.ScrubIntervalHours/2, nil
}

// Analyze computes the configuration's reliability under the latent-fault
// model by folding the effective error expectation back into the paper's
// HER parameter.
func Analyze(p params.Parameters, cfg core.Config, o Options, method core.Method) (core.Result, error) {
	eff, err := EffectiveCHER(p, o)
	if err != nil {
		return core.Result{}, err
	}
	q := p
	// Express the effective expectation through the HER parameter so
	// every downstream formula sees it: CHER = C·8·HER.
	q.HardErrorRate = eff / (q.DriveCapacityBytes * 8)
	return core.Analyze(q, cfg, method)
}

// MinUsefulInterval returns the scrub interval below which further
// scrubbing cannot help: where the latent contribution drops to the given
// fraction of the instantaneous C·HER floor.
func MinUsefulInterval(p params.Parameters, rho, fraction float64) (float64, error) {
	if rho <= 0 {
		return 0, fmt.Errorf("scrub: non-positive latent rate")
	}
	if fraction <= 0 || fraction >= 1 {
		return 0, fmt.Errorf("scrub: fraction %v out of (0,1)", fraction)
	}
	return 2 * fraction * p.CHER() / rho, nil
}
