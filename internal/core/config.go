// Package core is the analysis engine tying the substrates together: it
// enumerates the paper's redundancy configurations, derives every model
// input from a params.Parameters, and produces reliability results
// (MTTDL and data-loss events per PB-year) by either the paper's
// closed-form approximations or exact Markov chain solutions.
package core

import (
	"fmt"
)

// InternalRedundancy selects the redundancy scheme inside each node.
type InternalRedundancy int

const (
	// InternalNone uses individual drives to realize the inter-node
	// erasure code (Section 4.3).
	InternalNone InternalRedundancy = iota + 1
	// InternalRAID5 protects each node's drives with single-parity RAID.
	InternalRAID5
	// InternalRAID6 protects each node's drives with double-parity RAID.
	InternalRAID6
)

// String returns the paper's naming.
func (r InternalRedundancy) String() string {
	switch r {
	case InternalNone:
		return "No Internal RAID"
	case InternalRAID5:
		return "Internal RAID 5"
	case InternalRAID6:
		return "Internal RAID 6"
	default:
		return fmt.Sprintf("InternalRedundancy(%d)", int(r))
	}
}

// ParseInternal maps an internal-redundancy wire or flag name ("none",
// "raid5" or "raid6") onto its InternalRedundancy.
func ParseInternal(name string) (InternalRedundancy, error) {
	switch name {
	case "none":
		return InternalNone, nil
	case "raid5":
		return InternalRAID5, nil
	case "raid6":
		return InternalRAID6, nil
	}
	return 0, fmt.Errorf("unknown internal redundancy %q (valid: none, raid5, raid6)", name)
}

// ParityDrives returns the m parameter of the internal array formulas
// (0, 1 or 2).
func (r InternalRedundancy) ParityDrives() int {
	switch r {
	case InternalNone:
		return 0
	case InternalRAID5:
		return 1
	case InternalRAID6:
		return 2
	default:
		panic(fmt.Sprintf("core: unknown internal redundancy %d", int(r)))
	}
}

// Config identifies one redundancy configuration: the internal scheme and
// the fault tolerance of the erasure code across nodes.
type Config struct {
	Internal           InternalRedundancy
	NodeFaultTolerance int
}

// String matches the paper's labels, e.g. "FT 2, Internal RAID 5".
func (c Config) String() string {
	return fmt.Sprintf("FT %d, %s", c.NodeFaultTolerance, c.Internal)
}

// Validate reports whether the configuration is well-formed on its own
// (parameter compatibility is checked by Analyze).
func (c Config) Validate() error {
	switch c.Internal {
	case InternalNone, InternalRAID5, InternalRAID6:
	default:
		return fmt.Errorf("core: unknown internal redundancy %d", int(c.Internal))
	}
	if c.NodeFaultTolerance < 1 {
		return fmt.Errorf("core: node fault tolerance %d must be >= 1", c.NodeFaultTolerance)
	}
	return nil
}

// BaselineConfigs returns the paper's nine configurations in Figure 13
// order: fault tolerance 1..3 × {no RAID, RAID 5, RAID 6}.
func BaselineConfigs() []Config {
	out := make([]Config, 0, 9)
	for ft := 1; ft <= 3; ft++ {
		for _, ir := range []InternalRedundancy{InternalNone, InternalRAID5, InternalRAID6} {
			out = append(out, Config{Internal: ir, NodeFaultTolerance: ft})
		}
	}
	return out
}

// SensitivityConfigs returns the three configurations the paper carries
// into Section 7 after the baseline comparison: FT2 without internal RAID,
// FT2 with internal RAID 5, and FT3 without internal RAID.
func SensitivityConfigs() []Config {
	return []Config{
		{Internal: InternalNone, NodeFaultTolerance: 2},
		{Internal: InternalRAID5, NodeFaultTolerance: 2},
		{Internal: InternalNone, NodeFaultTolerance: 3},
	}
}
