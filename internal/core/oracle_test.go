package core

import "repro/internal/params"

// Test-only: the capacity the tests check Result.LogicalCapacityPB with.

// LogicalCapacityPB is logicalCapacityPB on a copy of p.
func LogicalCapacityPB(p params.Parameters, cfg Config) float64 {
	return logicalCapacityPB(&p, cfg)
}
