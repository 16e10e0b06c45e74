package markov

// Test-only: one edge's rate, read back by the chain tests.

// Rate returns the transition rate from state i to state j (0 if no edge).
func (c *Chain) Rate(i, j int) float64 {
	if c.Frozen() {
		if e := c.findEdge(i, j); e >= 0 {
			return c.edges[e].Rate
		}
		return 0
	}
	return c.rates[i][j]
}
