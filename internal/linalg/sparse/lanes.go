package sparse

import "fmt"

// Lanes is the width of the lane kernels: Refactor4 and
// SolveTranspose4Into factor and solve Lanes matrices of one analyzed
// pattern per pass over the compiled program, one matrix per lane.
//
// The program's index loads and loop overhead are then paid once per
// pass instead of once per matrix, and the lanes' dependency chains —
// each a serial run of divides and multiply-subtracts — overlap. Each
// lane performs exactly the float operations of the scalar kernel, in
// its order and with its expression shapes, so lane l's factors and
// solution are bit for bit those of Refactor and SolveTransposeInto on
// lane l's matrix. The scalar kernels' zero skips (a zero multiplier in
// Refactor, a zero solution entry in the solve) are decided per lane:
// skipping a subtraction of zero is not a no-op on a signed zero or
// against an Inf or NaN entry.
const Lanes = 4

// lane is one factor slot, or one solve entry, of every lane.
type lane = [Lanes]float64

// Refactor4 factors Lanes matrices of the analyzed pattern at once:
// vals[l] holds lane l's stored values in the pattern's order — the Val
// of a CSR viewing Pattern(). It returns, per lane, whether every pivot
// is nonzero: Refactor on that lane's matrix succeeds exactly when its
// verdict is true, and reports the zero pivot when it is false. The lane
// factors, singular lanes' included, are bit for bit Refactor's; a
// value row of the wrong length panics. The lane storage is allocated by
// the first call; later calls allocate nothing.
func (nu *Numeric) Refactor4(vals *[Lanes][]float64) [Lanes]bool {
	s := nu.s
	for l, v := range vals {
		if len(v) != len(s.col) {
			panic(fmt.Sprintf("sparse: Refactor4 lane %d has %d values, analyzed pattern has %d", l, len(v), len(s.col)))
		}
	}
	if nu.lanes == nil {
		nu.lanes = make([]lane, len(nu.val))
		nu.ylanes = make([]lane, s.n)
	}
	val := nu.lanes
	for _, sl := range s.fill {
		val[sl] = lane{}
	}
	nnz := len(s.aslot)
	v0, v1, v2, v3 := vals[0][:nnz], vals[1][:nnz], vals[2][:nnz], vals[3][:nnz]
	for p, sl := range s.aslot {
		val[sl] = lane{v0[p], v1[p], v2[p], v3[p]}
	}
	for e, piv := range s.piv {
		pv, ev := &val[piv], &val[e]
		m0, m1, m2, m3 := ev[0]/pv[0], ev[1]/pv[1], ev[2]/pv[2], ev[3]/pv[3]
		*ev = lane{m0, m1, m2, m3}
		dst := s.dst[s.upd[e]:s.upd[e+1]]
		src := val[int(piv)+1 : int(piv)+1+len(dst)]
		if m0 != 0 && m1 != 0 && m2 != 0 && m3 != 0 {
			for t, d := range dst {
				x, y := &val[d], &src[t]
				x[0] -= m0 * y[0]
				x[1] -= m1 * y[1]
				x[2] -= m2 * y[2]
				x[3] -= m3 * y[3]
			}
			continue
		}
		for l, m := range *ev {
			if m == 0 {
				continue
			}
			for t, d := range dst {
				val[d][l] -= m * src[t][l]
			}
		}
	}
	ok := [Lanes]bool{true, true, true, true}
	u := val[len(s.li):]
	for i := 0; i < s.n; i++ {
		if d := &u[s.up[i]]; d[0] == 0 || d[1] == 0 || d[2] == 0 || d[3] == 0 {
			for l, v := range d {
				if v == 0 {
					ok[l] = false
				}
			}
		}
	}
	return ok
}

// SolveTranspose4Into solves Aᵀ·x = b[l] against lane l's factors from
// the latest Refactor4, writing x into dst[l], for every lane. Each lane
// performs exactly SolveTransposeInto's float operations, in its order,
// so dst[l] is bit for bit what SolveTransposeInto writes from Refactor's
// factors of lane l's matrix. All vectors have length N; any dst may
// alias any b. 0 allocs/op.
func (nu *Numeric) SolveTranspose4Into(dst, b *[Lanes][]float64) {
	s := nu.s
	n := s.n
	for l := range dst {
		if len(dst[l]) != n || len(b[l]) != n {
			panic(fmt.Sprintf("sparse: SolveTranspose4Into lane %d lengths dst=%d b=%d vs dimension %d", l, len(dst[l]), len(b[l]), n))
		}
	}
	if nu.lanes == nil {
		panic("sparse: SolveTranspose4Into before Refactor4")
	}
	y := nu.ylanes
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	for i, o := range s.perm {
		y[i] = lane{b0[o], b1[o], b2[o], b3[o]}
	}
	lval, uval := nu.lanes[:len(s.li)], nu.lanes[len(s.li):]
	// Uᵀ, ascending: divide by the pivot, then push into the rows below.
	for k := 0; k < n; k++ {
		d, yk := &uval[s.up[k]], &y[k]
		v0, v1, v2, v3 := yk[0]/d[0], yk[1]/d[1], yk[2]/d[2], yk[3]/d[3]
		*yk = lane{v0, v1, v2, v3}
		lo, hi := s.up[k]+1, s.up[k+1]
		if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
			for p := lo; p < hi; p++ {
				a, t := &uval[p], &y[s.ui[p]]
				t[0] -= a[0] * v0
				t[1] -= a[1] * v1
				t[2] -= a[2] * v2
				t[3] -= a[3] * v3
			}
			continue
		}
		if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
			continue
		}
		for l, v := range *yk {
			if v == 0 {
				continue
			}
			for p := lo; p < hi; p++ {
				y[s.ui[p]][l] -= uval[p][l] * v
			}
		}
	}
	// Lᵀ, descending: push each final entry into the rows above.
	for k := n - 1; k >= 0; k-- {
		yk := &y[k]
		v0, v1, v2, v3 := yk[0], yk[1], yk[2], yk[3]
		lo, hi := s.lp[k], s.lp[k+1]
		if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
			for p := lo; p < hi; p++ {
				a, t := &lval[p], &y[s.li[p]]
				t[0] -= a[0] * v0
				t[1] -= a[1] * v1
				t[2] -= a[2] * v2
				t[3] -= a[3] * v3
			}
			continue
		}
		if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
			continue
		}
		for l, v := range *yk {
			if v == 0 {
				continue
			}
			for p := lo; p < hi; p++ {
				y[s.li[p]][l] -= lval[p][l] * v
			}
		}
	}
	d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
	for i, o := range s.perm {
		yi := &y[i]
		d0[o], d1[o], d2[o], d3[o] = yi[0], yi[1], yi[2], yi[3]
	}
}
