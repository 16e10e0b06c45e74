package markov

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the chain in Graphviz dot syntax: absorbing states are drawn
// as double circles, edges are labelled with their rates in compact
// scientific notation. The output is deterministic (states in creation
// order, edges sorted by target).
func (c *Chain) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n")
	for i := 0; i < c.NumStates(); i++ {
		shape := "circle"
		if c.IsAbsorbing(i) {
			shape = "doublecircle"
		}
		peripheral := ""
		if i == c.Initial() {
			peripheral = ", style=bold"
		}
		fmt.Fprintf(&b, "  %q [shape=%s%s];\n", c.StateName(i), shape, peripheral)
	}
	for i := 0; i < c.NumStates(); i++ {
		for _, e := range c.Successors(i) {
			fmt.Fprintf(&b, "  %q -> %q [label=\"%.3g\"];\n", c.StateName(i), c.StateName(e.To), e.Rate)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Summary describes a chain's shape for diagnostics.
type Summary struct {
	States      int
	Transient   int
	Absorbing   int
	Transitions int
	// MinRate and MaxRate are the extreme transition rates; their ratio
	// bounds the stiffness of the generator.
	MinRate, MaxRate float64
}

// Summarize computes the chain's Summary.
func (c *Chain) Summarize() Summary {
	s := Summary{States: c.NumStates()}
	s.Absorbing = len(c.AbsorbingStates())
	s.Transient = s.States - s.Absorbing
	first := true
	for i := 0; i < c.NumStates(); i++ {
		for _, e := range c.Successors(i) {
			s.Transitions++
			if first || e.Rate < s.MinRate {
				s.MinRate = e.Rate
			}
			if first || e.Rate > s.MaxRate {
				s.MaxRate = e.Rate
			}
			first = false
		}
	}
	return s
}

// ExpectedVisits returns, for each transient state, the expected number of
// times the embedded jump chain visits it before absorption, starting from
// the initial state. (The expected time in a state is visits × mean
// holding time; this decomposition is useful for profiling which degraded
// states dominate.) It solves through Absorption and fails where it
// fails, a non-positive or non-finite MTTA included.
func ExpectedVisits(c *Chain) (map[string]float64, error) {
	res, err := Absorption(c)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(res.TimeInState))
	for name, tau := range res.TimeInState {
		i, _ := c.StateIndex(name)
		out[name] = tau * c.ExitRate(i)
	}
	return out, nil
}

// TopStatesByTime returns the transient states sorted by expected time
// spent, most first, limited to n entries (n <= 0 means all).
func TopStatesByTime(c *Chain, n int) ([]string, error) {
	res, err := Absorption(c)
	if err != nil {
		return nil, err
	}
	type entry struct {
		name string
		tau  float64
	}
	entries := make([]entry, 0, len(res.TimeInState))
	for name, tau := range res.TimeInState {
		entries = append(entries, entry{name, tau})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].tau != entries[j].tau {
			return entries[i].tau > entries[j].tau
		}
		return entries[i].name < entries[j].name
	})
	if n > 0 && n < len(entries) {
		entries = entries[:n]
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.name
	}
	return out, nil
}
