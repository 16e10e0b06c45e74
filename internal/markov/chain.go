// Package markov implements continuous-time Markov chains (CTMCs) with
// absorbing states and the analyses the paper builds on (Trivedi [6]):
//
//   - mean time to absorption (the paper's MTTDL) by solving
//     τ_B·Q_B = -π_B(0) with dense or sparse LU factorization;
//   - expected time spent in each transient state and absorption
//     probabilities per absorbing state;
//   - transient state probabilities via uniformization;
//   - stochastic path simulation for Monte Carlo cross-validation.
//
// Chains are built by naming states and adding transition rates; the
// package computes generator and absorption matrices on demand. A built
// chain can be frozen into an immutable CSR adjacency (sorted edges,
// allocation-free iteration) and, for sweeps, refilled with new rates
// over the identical topology by a compiled program (ApplyRates). Every
// absorption quantity — MTTA, τ, absorption probabilities, rate
// sensitivities — is read off one factorization of R = -Q_B, made by
// BatchSolver.
package markov

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/linalg"
)

// Chain is a CTMC under construction. States are identified by name; the
// first state added is the initial state unless SetInitial overrides it.
// The zero value is not usable; call NewChain.
//
// A chain starts mutable, with adjacency held in per-state maps. Freeze
// converts it to an immutable CSR representation: edges sorted by target
// index per state (the same deterministic order Successors always used),
// so iteration — and therefore every accumulated floating-point sum — is
// bit-identical before and after freezing, but frozen iteration is an
// allocation-free slice view. Model builders freeze once at construction;
// analysis sweeps refill the frozen topology via ApplyRates.
type Chain struct {
	names     []string
	index     map[string]int
	absorbing map[int]bool
	// rates[from] maps to-state → cumulative rate. Self-loops are
	// rejected; parallel edges accumulate. Nil once frozen.
	rates   []map[int]float64
	initial int

	// Frozen CSR adjacency: edges[ptr[i]:ptr[i+1]] are state i's
	// outgoing edges sorted by target; exit[i] is their sum in that
	// order. ptr is non-nil exactly when the chain is frozen.
	ptr   []int
	edges []Edge
	exit  []float64

	// label is optional caller metadata (model builders tag chains with
	// their topology family, which BatchSolver checks on Fill).
	label string
}

// NewChain returns an empty chain.
func NewChain() *Chain {
	return &Chain{index: make(map[string]int), initial: -1}
}

// State returns the index of the named state, creating it if necessary.
// The first state created becomes the initial state by default. Creating
// a new state on a frozen chain panics.
func (c *Chain) State(name string) int {
	if i, ok := c.index[name]; ok {
		return i
	}
	if c.Frozen() {
		panic(fmt.Sprintf("markov: new state %q on frozen chain", name))
	}
	i := len(c.names)
	c.names = append(c.names, name)
	c.index[name] = i
	c.rates = append(c.rates, make(map[int]float64))
	if c.initial < 0 {
		c.initial = i
	}
	return i
}

// SetInitial marks the named state as the initial state (creating it if
// needed).
func (c *Chain) SetInitial(name string) {
	c.initial = c.State(name)
}

// SetAbsorbing marks the named state as absorbing (creating it if needed).
// Outgoing rates from an absorbing state are rejected by AddRate.
func (c *Chain) SetAbsorbing(name string) {
	i := c.State(name)
	if c.absorbing == nil {
		c.absorbing = make(map[int]bool)
	}
	c.absorbing[i] = true
}

// SetLabel attaches caller metadata to the chain (e.g. the model
// builder's topology key). The label has no semantic effect.
func (c *Chain) SetLabel(label string) { c.label = label }

// Label returns the metadata attached by SetLabel.
func (c *Chain) Label() string { return c.label }

// AddRate adds a transition with the given rate (per unit time) from one
// named state to another, creating the states if needed. Rates accumulate
// across repeated calls for the same edge; zero rates are dropped (no
// edge is recorded). It panics on negative rates, self-loops, and
// transitions out of absorbing states — all of which are modelling bugs,
// not runtime conditions — and on mutating a frozen chain.
func (c *Chain) AddRate(from, to string, rate float64) {
	if rate != 0 {
		c.AddEdge(from, to, rate)
	}
}

// AddEdge is AddRate keeping zero-rate edges: the transition becomes part
// of the chain's structure even when its current rate is zero. Model
// builders use it so a topology is a function of the model's shape alone
// — parameter corners that zero a rate (h clamped to 1, a vanishing
// failure rate) keep the edge, and every chain of the same family shares
// one CSR pattern that sweeps can refill and solvers can cache.
func (c *Chain) AddEdge(from, to string, rate float64) {
	if rate < 0 {
		panic(fmt.Sprintf("markov: negative rate %v on %s→%s", rate, from, to))
	}
	f := c.State(from)
	t := c.State(to)
	if f == t {
		panic(fmt.Sprintf("markov: self-loop on state %s", from))
	}
	if c.absorbing[f] {
		panic(fmt.Sprintf("markov: transition out of absorbing state %s", from))
	}
	if c.Frozen() {
		panic(fmt.Sprintf("markov: rate added to frozen chain (%s→%s); use ApplyRates", from, to))
	}
	c.rates[f][t] += rate
}

// EdgeIndex returns the position in the frozen edge array of the from→to
// transition, or -1 if either state or the edge is absent. The index is
// stable for the chain's lifetime and across refills, which is what lets
// compiled refill programs address edges without string lookups. It
// panics on an unfrozen chain — edge positions only exist in CSR form.
func (c *Chain) EdgeIndex(from, to string) int {
	if !c.Frozen() {
		panic("markov: EdgeIndex on unfrozen chain")
	}
	f, ok := c.index[from]
	if !ok {
		return -1
	}
	t, ok := c.index[to]
	if !ok {
		return -1
	}
	return c.findEdge(f, t)
}

// ApplyRates refills a frozen chain in one call: every edge rate is
// zeroed, rates[i] accumulates onto edges[program[i]] in program order,
// and exit sums are recomputed in the sorted order Freeze uses. When the
// program lists the edges in the order the chain's AddEdge calls added
// them (EdgeIndex of each), the refilled chain is bit-identical to a
// fresh build with those rates, while touching no strings or maps.
// Negative rates panic as AddRate would; a program/rates length mismatch
// panics (the program encodes the builder's exact emission sequence).
func (c *Chain) ApplyRates(program []int, rates []float64) {
	if !c.Frozen() {
		panic("markov: ApplyRates on unfrozen chain")
	}
	if len(program) != len(rates) {
		panic(fmt.Sprintf("markov: ApplyRates program length %d vs %d rates", len(program), len(rates)))
	}
	for i := range c.edges {
		c.edges[i].Rate = 0
	}
	for i, e := range program {
		r := rates[i]
		if r < 0 {
			panic(fmt.Sprintf("markov: negative rate %v in ApplyRates", r))
		}
		c.edges[e].Rate += r
	}
	c.recomputeExits()
}

// findEdge returns the index into edges of the f→t edge, or -1.
func (c *Chain) findEdge(f, t int) int {
	lo, hi := c.ptr[f], c.ptr[f+1]
	row := c.edges[lo:hi]
	p := sort.Search(len(row), func(i int) bool { return row[i].To >= t })
	if p < len(row) && row[p].To == t {
		return lo + p
	}
	return -1
}

// Freeze converts the chain's adjacency to the immutable CSR form and
// returns the chain. Edge iteration order (sorted by target index) and
// the exit-rate summation order are identical to the mutable form, so
// every downstream result is bit-identical; frozen iteration is an
// allocation-free slice view. Freeze is idempotent. After freezing, new
// states and rates panic — the topology is sealed; only ApplyRates
// changes rates.
func (c *Chain) Freeze() *Chain {
	if c.Frozen() {
		return c
	}
	nnz := 0
	for _, m := range c.rates {
		nnz += len(m)
	}
	c.ptr, c.edges = c.csrInto(nil, make([]Edge, 0, nnz))
	c.exit = make([]float64, len(c.names))
	c.recomputeExits()
	c.rates = nil
	return c
}

// csrInto lays the mutable adjacency out in CSR form — state i's edges
// at edges[ptr[i]:ptr[i+1]], sorted by target index — reusing the given
// buffers when they are large enough.
func (c *Chain) csrInto(ptr []int, edges []Edge) ([]int, []Edge) {
	n := len(c.names)
	if cap(ptr) < n+1 {
		ptr = make([]int, n+1)
	}
	ptr = ptr[:n+1]
	ptr[0] = 0
	edges = edges[:0]
	for i := 0; i < n; i++ {
		start := len(edges)
		for to, r := range c.rates[i] {
			edges = append(edges, Edge{To: to, Rate: r})
		}
		slices.SortFunc(edges[start:], func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		ptr[i+1] = len(edges)
	}
	return ptr, edges
}

// Frozen reports whether the chain has been frozen.
func (c *Chain) Frozen() bool { return c.ptr != nil }

func (c *Chain) recomputeExits() {
	for i := range c.exit {
		var s float64
		for _, e := range c.edges[c.ptr[i]:c.ptr[i+1]] {
			s += e.Rate
		}
		c.exit[i] = s
	}
}

// NumStates returns the number of states defined so far.
func (c *Chain) NumStates() int { return len(c.names) }

// StateName returns the name of state i.
func (c *Chain) StateName(i int) string { return c.names[i] }

// StateIndex returns the index of a named state and whether it exists.
func (c *Chain) StateIndex(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// Initial returns the index of the initial state, or -1 for an empty chain.
func (c *Chain) Initial() int { return c.initial }

// IsAbsorbing reports whether state i is absorbing.
func (c *Chain) IsAbsorbing(i int) bool { return c.absorbing[i] }

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

// ExitRate returns the total outgoing rate of state i. Edges are summed
// in target-index order so the floating-point result is reproducible;
// frozen chains return the precomputed sum (same order, same bits).
func (c *Chain) ExitRate(i int) float64 {
	if c.Frozen() {
		return c.exit[i]
	}
	var s float64
	for _, e := range c.Successors(i) {
		s += e.Rate
	}
	return s
}

// OutDegree returns the number of outgoing edges of state i (including
// structural zero-rate edges on frozen chains).
func (c *Chain) OutDegree(i int) int {
	if c.Frozen() {
		return c.ptr[i+1] - c.ptr[i]
	}
	return len(c.rates[i])
}

// TransientStates returns the indices of non-absorbing states in creation
// order.
func (c *Chain) TransientStates() []int {
	out := make([]int, 0, len(c.names))
	for i := range c.names {
		if !c.absorbing[i] {
			out = append(out, i)
		}
	}
	return out
}

// AbsorbingStates returns the indices of absorbing states in creation order.
func (c *Chain) AbsorbingStates() []int {
	out := make([]int, 0, len(c.absorbing))
	for i := range c.names {
		if c.absorbing[i] {
			out = append(out, i)
		}
	}
	return out
}

// Successors returns the outgoing edges of state i sorted by target index,
// for deterministic iteration (simulation, generator assembly). On a
// frozen chain this is a view into the CSR edge array — no allocation,
// and the caller must not modify it or hold it across a refill.
func (c *Chain) Successors(i int) []Edge {
	if c.Frozen() {
		return c.edges[c.ptr[i]:c.ptr[i+1]:c.ptr[i+1]]
	}
	out := make([]Edge, 0, len(c.rates[i]))
	for to, r := range c.rates[i] {
		out = append(out, Edge{To: to, Rate: r})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].To < out[b].To })
	return out
}

// Edge is one outgoing transition.
type Edge struct {
	To   int
	Rate float64
}

// Validate reports structural problems: no states, no absorbing state
// reachable, or transient states with no outgoing rate (which would trap
// probability mass and make mean time to absorption infinite). Structural
// zero-rate edges (AddEdge) do not count as outgoing rate and do not make
// an absorbing state reachable.
func (c *Chain) Validate() error {
	var vs validateScratch
	return c.validate(&vs)
}

// validateScratch holds the reachability buffers so repeated validations
// (a BatchSolver validates every cell it fills) run without allocating.
// The zero value is ready to use.
type validateScratch struct {
	seen  []bool
	stack []int
}

// validate is Validate in caller-owned scratch.
func (c *Chain) validate(vs *validateScratch) error {
	if len(c.names) == 0 {
		return fmt.Errorf("markov: chain has no states")
	}
	if c.initial < 0 {
		return fmt.Errorf("markov: chain has no initial state")
	}
	if len(c.absorbing) == 0 {
		return fmt.Errorf("markov: chain has no absorbing state")
	}
	for i := range c.names {
		if c.absorbing[i] {
			continue
		}
		if c.OutDegree(i) == 0 || c.ExitRate(i) == 0 {
			return fmt.Errorf("markov: transient state %q has no outgoing transitions", c.names[i])
		}
	}
	if !c.absorptionReachable(vs) {
		return fmt.Errorf("markov: no absorbing state is reachable from the initial state")
	}
	return nil
}

// absorptionReachable reports whether a depth-first search from the
// initial state over positive-rate edges reaches an absorbing state.
func (c *Chain) absorptionReachable(vs *validateScratch) bool {
	n := len(c.names)
	if cap(vs.seen) < n {
		vs.seen = make([]bool, n)
	}
	seen := vs.seen[:n]
	for i := range seen {
		seen[i] = false
	}
	stack := append(vs.stack[:0], c.initial)
	seen[c.initial] = true
	reached := false
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.absorbing[s] {
			reached = true
			break
		}
		for _, e := range c.Successors(s) {
			if e.Rate > 0 && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	vs.stack = stack[:0]
	return reached
}

// AbsorptionMatrix returns R = -Q_B, the paper's "absorption matrix": Q
// restricted to transient states, negated so the diagonal is positive.
// The second result maps rows of R to state indices of the chain; the
// initial state's row index is returned third.
func (c *Chain) AbsorptionMatrix() (*linalg.Matrix, []int, int) {
	trans := c.TransientStates()
	pos := make(map[int]int, len(trans))
	for row, s := range trans {
		pos[s] = row
	}
	r := linalg.New(len(trans), len(trans))
	for row, s := range trans {
		// Sorted edge order keeps the exit-rate summation (and so R)
		// bit-reproducible across runs; map order would perturb the
		// diagonal by ulps and make "identical inputs, identical
		// results" unprovable.
		var exit float64
		for _, e := range c.Successors(s) {
			exit += e.Rate
			if col, ok := pos[e.To]; ok {
				r.Set(row, col, -e.Rate)
			}
		}
		r.Set(row, row, r.At(row, row)+exit)
	}
	initRow, ok := pos[c.initial]
	if !ok {
		initRow = -1 // initial state is absorbing
	}
	return r, trans, initRow
}
