// Advisor: the FT 2 no-internal-RAID configuration misses the paper's
// target by a factor of ~1.65 at baseline. This example asks the model
// what single-parameter change would fix it — and, for the recommended
// FT 2 + RAID 5 configuration, how much component-quality headroom the
// 361× margin really buys. It finishes with the chain-level view: which
// individual Markov transitions the MTTDL is most sensitive to.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/closedform"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/rebuild"
)

func main() {
	p := params.Baseline()
	target := core.PaperTarget()

	printAdvice := func(cfg core.Config) {
		r, err := core.Analyze(p, cfg, core.MethodClosedForm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %.3g events/PB-yr (target %.2g, margin %.2f×)\n",
			cfg, r.EventsPerPBYear, target.EventsPerPBYear, target.Margin(r))
		advice, err := core.Advise(context.Background(), p, cfg, target, core.MethodClosedForm)
		if err != nil {
			log.Fatal(err)
		}
		passing := target.Meets(r)
		for _, a := range advice {
			if !a.Achievable {
				fmt.Printf("  %-24s elasticity %+5.2f — no single-parameter path to the target boundary\n",
					a.Parameter, a.Elasticity)
				continue
			}
			story := "change to %.2f× current to hit the target"
			if passing {
				story = "headroom: tolerates %.2f× current before losing the target"
			}
			fmt.Printf("  %-24s elasticity %+5.2f — "+story+"\n",
				a.Parameter, a.Elasticity, a.RequiredFactor)
		}
		fmt.Println()
	}

	printAdvice(core.Config{Internal: core.InternalNone, NodeFaultTolerance: 2})
	printAdvice(core.Config{Internal: core.InternalRAID5, NodeFaultTolerance: 2})

	// Chain-level sensitivities: which transitions dominate MTTDL.
	rates := rebuild.Compute(p, 2)
	in := closedform.NIRInputs{
		N: p.NodeSetSize, R: p.RedundancySetSize, D: p.DrivesPerNode,
		LambdaN: p.NodeFailureRate(), LambdaD: p.DriveFailureRate(),
		MuN: rates.NodeRebuild, MuD: rates.DriveRebuild, CHER: p.CHER(),
	}
	sens, err := markov.RateSensitivities(model.NIRChain(in, 2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("most influential transitions of the FT2-NIR chain (d log MTTDL / d log rate):")
	for i, s := range sens {
		if i == 6 {
			break
		}
		fmt.Printf("  %-4s → %-4s  rate %.3g/h  elasticity %+.3f\n", s.From, s.To, s.Rate, s.Elasticity)
	}
}
