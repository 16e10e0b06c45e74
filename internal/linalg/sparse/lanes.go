package sparse

import (
	"fmt"
	"math"
)

// Lanes is the width of a compiled Program: Run factors and solves Lanes
// matrices of one analyzed pattern per pass, one matrix per lane.
//
// A Program is the elimination and the e_init transposed solve of a
// Symbolic, compiled once against a source map: every stored value of
// the matrix is named by a source, an index into a per-lane value table,
// and stored values that share a source are equal in every lane. Compile
// value-numbers the elimination over that table: an operation whose
// kind and operand values were already computed is dropped and its
// factor slot reuses the earlier value. The absorption matrices of the
// NIR chain take their values from a few dozen rate classes and exit
// sums, so at fault tolerance 7 the 254 divides and 254 updates of the
// elimination reduce to 56 and 86 distinct ones. The solve of
// Aᵀ·x = e_init runs over the structurally nonzero entries only.
//
// Each lane performs exactly the float operations of Refactor and
// SolveTransposeInto, with their expression shapes, so every factor slot
// and every nonzero solution entry is bit for bit theirs on the lane's
// matrix, except which payload a NaN carries: a product of two NaNs
// returns one of them, by the operand order the compiler picks at each
// code site. Their zero skips (a zero multiplier in Refactor, a zero
// solution entry in the solve) are decided per lane: skipping a
// subtraction of zero is not a no-op on a signed zero or against an Inf
// or NaN entry. An update that skips on a zero multiplier is a per-lane
// function of its operands, so sharing it stays exact.
const Lanes = 4

// Lane is one value of every lane: a table entry or a solve entry.
type Lane = [Lanes]float64

// Program is a Symbolic's numeric elimination and e_init transposed
// solve, value-numbered against a source map (Compile). It is immutable
// and safe for concurrent use; each caller owns its tables.
//
// The value table has TableLen entries: the nsrc caller-filled sources
// of Compile, then a zero (the fill slots' initial value), then one entry
// per kept operation, in program order.
type Program struct {
	src  []int32 // stored position → source
	nsrc int
	ntab int

	// elim is the elimination, one group per L entry that keeps an
	// operation: [a, b, n, x₁, y₁, …, xₙ, yₙ]. With a ≥ 0 the group
	// divides table entry a by b into the next entry, its multiplier;
	// with a < 0 the multiplier is the earlier entry b. Each update
	// (x, y) writes x − m·y (x where the lane's m is zero) into the next
	// entry.
	elim []int32
	// pivs are the distinct table entries on U's diagonal.
	pivs []int32
	// The solve over the structurally nonzero entries of x, compacted
	// in ascending original row order (orig), the initial row's at
	// initY. fwd is the Uᵀ pass, [k, piv, n, t₁, c₁, …, tₙ, cₙ] per
	// entry: divide entry k by table entry piv, then push it into
	// entries t with coefficients c. bwd is the Lᵀ pass, [k, n, t₁, c₁,
	// …] per entry with pushes.
	fwd, bwd []int32
	orig     []int32
	initY    int32

	// vn is the table entry of every factor slot.
	vn    []int32
	stats ProgramStats
}

// ProgramStats counts what a Program kept: distinct divides and
// updates, distinct values among the factor slots, and the solve's
// divides and pushes over structurally nonzero entries.
type ProgramStats struct {
	Divides, Updates, FactorValues int
	SolveDivides, Pushes           int
}

// opKey names an operation by its operands' table entries: an update
// (x, m, y), or a divide (a, b, -1).
type opKey struct{ a, b, c int32 }

// Compile compiles the elimination and the solve of Aᵀ·x = e_init
// against a source map: src[p] in [0, nsrc) is the source of the
// analyzed matrix's stored position p (CSR order), and init the
// original row of the right-hand side's one. Any other input panics.
func (s *Symbolic) Compile(src []int, nsrc, init int) *Program {
	if len(src) != len(s.col) {
		panic(fmt.Sprintf("sparse: Compile source map has %d entries, analyzed pattern has %d", len(src), len(s.col)))
	}
	if init < 0 || init >= s.n {
		panic(fmt.Sprintf("sparse: Compile initial row %d outside dimension %d", init, s.n))
	}
	nL := len(s.li)
	p := &Program{src: make([]int32, len(src)), nsrc: nsrc, vn: make([]int32, nL+len(s.ui))}
	vn := p.vn
	for _, sl := range s.fill {
		vn[sl] = int32(nsrc)
	}
	for q, sl := range s.aslot {
		if src[q] < 0 || src[q] >= nsrc {
			panic(fmt.Sprintf("sparse: Compile source %d of position %d outside [0, %d)", src[q], q, nsrc))
		}
		p.src[q] = int32(src[q])
		vn[sl] = int32(src[q])
	}
	seen := make(map[opKey]int32)
	next := int32(nsrc + 1)
	value := func(k opKey) (int32, bool) {
		if v, ok := seen[k]; ok {
			return v, false
		}
		seen[k] = next
		next++
		return next - 1, true
	}
	for e, piv := range s.piv {
		head := len(p.elim)
		m, divides := value(opKey{vn[e], vn[piv], -1})
		if divides {
			p.elim = append(p.elim, vn[e], vn[piv], 0)
			p.stats.Divides++
		} else {
			p.elim = append(p.elim, -1, m, 0)
		}
		vn[e] = m
		for t, d := range s.dst[s.upd[e]:s.upd[e+1]] {
			x, y := vn[d], vn[int(piv)+1+t]
			u, fresh := value(opKey{x, m, y})
			if fresh {
				p.elim = append(p.elim, x, y)
				p.stats.Updates++
			}
			vn[d] = u
		}
		if n := (len(p.elim) - head - 3) / 2; n > 0 || divides {
			p.elim[head+2] = int32(n)
		} else {
			p.elim = p.elim[:head]
		}
	}
	p.ntab = int(next)
	distinct := make(map[int32]bool)
	for _, q := range s.up[:s.n] {
		if v := vn[nL+q]; !distinct[v] {
			distinct[v] = true
			p.pivs = append(p.pivs, v)
		}
	}
	for _, v := range vn {
		distinct[v] = true
	}
	p.stats.FactorValues = len(distinct)
	p.compileSolve(s, init)
	return p
}

// compileSolve emits the solve of Aᵀ·x = e_init in SolveTransposeInto's
// order over the entries that can be nonzero: the Uᵀ pass divides and
// pushes only entries its pushes reached from the initial row, the Lᵀ
// pass pushes only entries nonzero after it. Every other entry stays a
// zero in the scalar solve, which pushes nothing.
func (p *Program) compileSolve(s *Symbolic, init int) {
	n, nL := s.n, len(s.li)
	fwd := make([]bool, n)
	fwd[s.inv[init]] = true
	for k := 0; k < n; k++ {
		if fwd[k] {
			for q := s.up[k] + 1; q < s.up[k+1]; q++ {
				fwd[s.ui[q]] = true
			}
		}
	}
	nz := append([]bool(nil), fwd...)
	for k := n - 1; k >= 0; k-- {
		if nz[k] {
			for q := s.lp[k]; q < s.lp[k+1]; q++ {
				nz[s.li[q]] = true
			}
		}
	}
	at := make([]int32, n)
	for o, k := range s.inv {
		if nz[k] {
			at[k] = int32(len(p.orig))
			p.orig = append(p.orig, int32(o))
		}
	}
	p.initY = at[s.inv[init]]
	for k := 0; k < n; k++ {
		if !fwd[k] {
			continue
		}
		lo, hi := s.up[k]+1, s.up[k+1]
		p.fwd = append(p.fwd, at[k], p.vn[nL+s.up[k]], int32(hi-lo))
		for q := lo; q < hi; q++ {
			p.fwd = append(p.fwd, at[s.ui[q]], p.vn[nL+q])
		}
		p.stats.SolveDivides++
		p.stats.Pushes += hi - lo
	}
	for k := n - 1; k >= 0; k-- {
		lo, hi := s.lp[k], s.lp[k+1]
		if !nz[k] || lo == hi {
			continue
		}
		p.bwd = append(p.bwd, at[k], int32(hi-lo))
		for q := lo; q < hi; q++ {
			p.bwd = append(p.bwd, at[s.li[q]], p.vn[q])
		}
		p.stats.Pushes += hi - lo
	}
}

// TableLen returns the length of the value table Run needs.
func (p *Program) TableLen() int { return p.ntab }

// SolveLen returns the number of structurally nonzero solution entries:
// the length of the solve vector Run needs.
func (p *Program) SolveLen() int { return len(p.orig) }

// Stats returns what the program kept.
func (p *Program) Stats() ProgramStats { return p.stats }

// Run factors and solves the Lanes matrices whose sources are
// tab[:nsrc] (Compile's nsrc), writing every operation's value into the rest of tab
// and the structurally nonzero entries of each lane's solution x of
// Aᵀ·x = e_init into y, in ascending original row order — the order
// linalg.Sum adds a full solution in; every other entry of x is zero.
// It reports per lane whether every pivot is nonzero and not NaN. A
// lane whose verdict is false may hold garbage; one whose verdict is
// true holds, in every table entry a factor slot names and every y
// entry, exactly what Refactor and SolveTransposeInto compute on its
// matrix. 0 allocs/op.
func (p *Program) Run(tab, y []Lane) (ok [Lanes]bool) {
	if len(tab) < p.ntab || len(y) < len(p.orig) {
		panic(fmt.Sprintf("sparse: Run table %d and solve %d entries, program needs %d and %d", len(tab), len(y), p.ntab, len(p.orig)))
	}
	tab[p.nsrc] = Lane{}
	o := p.nsrc + 1
	for e := p.elim; len(e) > 0; {
		a, b, n := e[0], e[1], int(e[2])
		upd := e[3 : 3+2*n]
		e = e[3+2*n:]
		var m Lane
		if a >= 0 {
			ta, tb := &tab[a], &tab[b]
			m = Lane{ta[0] / tb[0], ta[1] / tb[1], ta[2] / tb[2], ta[3] / tb[3]}
			tab[o] = m
			o++
		} else {
			m = tab[b]
		}
		out := tab[o : o+n]
		o += n
		if m[0] != 0 && m[1] != 0 && m[2] != 0 && m[3] != 0 {
			for t := range out {
				x, v := &tab[upd[2*t]], &tab[upd[2*t+1]]
				out[t] = Lane{x[0] - m[0]*v[0], x[1] - m[1]*v[1], x[2] - m[2]*v[2], x[3] - m[3]*v[3]}
			}
			continue
		}
		for t := range out {
			x, v := tab[upd[2*t]], &tab[upd[2*t+1]]
			for l, ml := range m {
				if ml != 0 {
					x[l] -= ml * v[l]
				}
			}
			out[t] = x
		}
	}
	ok = [Lanes]bool{true, true, true, true}
	for _, pv := range p.pivs {
		if d := &tab[pv]; !(d[0] > 0 && d[1] > 0 && d[2] > 0 && d[3] > 0) {
			for l, v := range d {
				if v == 0 || math.IsNaN(v) {
					ok[l] = false
				}
			}
		}
	}
	p.solve(tab, y[:len(p.orig)])
	return ok
}

// solve runs the compiled Uᵀ and Lᵀ passes over y.
func (p *Program) solve(tab, y []Lane) {
	clear(y)
	y[p.initY] = Lane{1, 1, 1, 1}
	for f := p.fwd; len(f) > 0; {
		d, yk := &tab[f[1]], &y[f[0]]
		v := Lane{yk[0] / d[0], yk[1] / d[1], yk[2] / d[2], yk[3] / d[3]}
		*yk = v
		n := int(f[2])
		push(tab, y, f[3:3+2*n], &v)
		f = f[3+2*n:]
	}
	for b := p.bwd; len(b) > 0; {
		n := int(b[1])
		push(tab, y, b[2:2+2*n], &y[b[0]])
		b = b[2+2*n:]
	}
}

// push subtracts c·v from y's entry t for every pair (t, c) of pushes,
// c a table entry, in the lanes where v is nonzero.
func push(tab, y []Lane, pushes []int32, vp *Lane) {
	v := *vp
	if v[0] != 0 && v[1] != 0 && v[2] != 0 && v[3] != 0 {
		for t := 0; t < len(pushes); t += 2 {
			x, c := &y[pushes[t]], &tab[pushes[t+1]]
			x[0] -= c[0] * v[0]
			x[1] -= c[1] * v[1]
			x[2] -= c[2] * v[2]
			x[3] -= c[3] * v[3]
		}
		return
	}
	if v[0] == 0 && v[1] == 0 && v[2] == 0 && v[3] == 0 {
		return
	}
	for l, vl := range v {
		if vl == 0 {
			continue
		}
		for t := 0; t < len(pushes); t += 2 {
			y[pushes[t]][l] -= tab[pushes[t+1]][l] * vl
		}
	}
}

// ValuesInto writes lane l's stored values, in the analyzed pattern's
// order, into dst (length NNZ of the pattern) and returns it.
func (p *Program) ValuesInto(dst []float64, tab []Lane, l int) []float64 {
	for q, sr := range p.src {
		dst[q] = tab[sr][l]
	}
	return dst
}

// TauInto writes lane l's solution from y (as Run left it) into dst
// (length N), zeros included, and returns it.
func (p *Program) TauInto(dst []float64, y []Lane, l int) []float64 {
	clear(dst)
	for c, o := range p.orig {
		dst[o] = y[c][l]
	}
	return dst
}
