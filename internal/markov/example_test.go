package markov_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/markov"
)

// Build the paper's Figure 1 shape by hand — a repairable component whose
// second concurrent failure loses data — and solve it for the mean time to
// data loss.
func ExampleChain() {
	c := markov.NewChain()
	c.AddRate("ok", "degraded", 2)   // first failure
	c.AddRate("degraded", "ok", 100) // repair
	c.AddRate("degraded", "loss", 1) // second failure during repair
	c.SetAbsorbing("loss")

	mttdl, err := markov.MTTA(context.Background(), c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MTTDL = %.1f\n", mttdl)
	// Output:
	// MTTDL = 51.5
}
