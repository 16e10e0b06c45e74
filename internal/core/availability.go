package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/markov"
	"repro/internal/params"
)

// DegradedExposure reports how a system spends its pre-data-loss lifetime:
// the expected fraction of time at each outstanding-failure depth. During
// degraded intervals reads may need on-the-fly reconstruction and rebuild
// traffic competes with foreground I/O, so the profile is an
// availability/performance proxy the paper's related work discusses but
// Figure 13 does not show.
type DegradedExposure struct {
	Config Config
	// FractionByDepth[i] is the expected lifetime fraction spent with i
	// outstanding node-level failures (depth 0 = fully healthy).
	FractionByDepth []float64
	// MTTDLHours is the exact-chain mean time to data loss used for the
	// normalization.
	MTTDLHours float64
}

// Exposure computes the degraded-mode profile of a configuration from the
// exact chain's expected state occupancies.
func Exposure(p params.Parameters, cfg Config) (DegradedExposure, error) {
	if err := p.Validate(); err != nil {
		return DegradedExposure{}, err
	}
	if err := cfg.Validate(); err != nil {
		return DegradedExposure{}, err
	}
	k := cfg.NodeFaultTolerance
	chain, err := Chain(p, cfg)
	if err != nil {
		return DegradedExposure{}, err
	}
	res, err := markov.Absorption(chain)
	if err != nil {
		return DegradedExposure{}, fmt.Errorf("core: exposure of %v: %w", cfg, err)
	}
	exp := DegradedExposure{
		Config:          cfg,
		FractionByDepth: make([]float64, k+1),
		MTTDLHours:      res.MeanTimeToAbsorption,
	}
	// Sum in transient-state order, not map order, so the float
	// additions — and the result's bits — repeat from call to call.
	for _, s := range chain.TransientStates() {
		name := chain.StateName(s)
		exp.FractionByDepth[stateDepth(name)] += res.TimeInState[name] / res.MeanTimeToAbsorption
	}
	return exp, nil
}

// stateDepth maps a chain state name to its outstanding-failure count:
// IR chains use decimal level names ("0", "1", …); NIR chains use the
// appendix's failure words ("N0", "dd", …) where depth is the count of
// non-"0" letters.
func stateDepth(name string) int {
	if d, err := parseDecimal(name); err == nil {
		return d
	}
	depth := 0
	for _, r := range name {
		if r == 'N' || r == 'd' {
			depth++
		}
	}
	return depth
}

func parseDecimal(s string) (int, error) {
	if s == "" || strings.IndexFunc(s, func(r rune) bool { return r < '0' || r > '9' }) >= 0 {
		return 0, fmt.Errorf("not decimal")
	}
	n := 0
	for _, r := range s {
		n = n*10 + int(r-'0')
	}
	return n, nil
}

// Availability returns the fraction of lifetime fully healthy (depth 0).
func (e DegradedExposure) Availability() float64 {
	if len(e.FractionByDepth) == 0 {
		return 0
	}
	return e.FractionByDepth[0]
}

// String renders the profile compactly, deepest level last.
func (e DegradedExposure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", e.Config)
	keys := make([]int, 0, len(e.FractionByDepth))
	for i := range e.FractionByDepth {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	for _, i := range keys {
		fmt.Fprintf(&b, " depth%d=%.3g", i, e.FractionByDepth[i])
	}
	return b.String()
}
