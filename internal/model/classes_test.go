package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/combinat"
)

// The per-edge emitters the class emitters replaced, kept as the oracle
// they must reproduce: every edge's endpoints and rate, in emission
// order, each rate evaluated on its own with its edge's float
// expression and an h_α read from the full combinat.AppendHSet table.

// oracleEdges is one oracle pass: endpoints and rates in emission order.
type oracleEdges struct {
	ends  []edgeEnds
	rates []float64
}

func (o *oracleEdges) add(from, to int, rate float64) {
	o.ends = append(o.ends, edgeEnds{from, to})
	o.rates = append(o.rates, rate)
}

// oracleNIR emits the NIR chain of fault tolerance k for in by the
// per-edge recursion: depth first, a state's repair edge, then its
// failure edges, then its N child's subtree, then its d child's.
func oracleNIR(in closedform.NIRInputs, k int) oracleEdges {
	var o oracleEdges
	hs := combinat.AppendHSet(nil, in.N, in.R, in.D, in.CHER, k)
	hAt := func(word int) float64 {
		h := hs[word]
		if h > 1 {
			return 1
		}
		return h
	}
	var emit func(j, word int)
	emit = func(j, word int) {
		id := 1<<j | word
		n := float64(in.N) - float64(j)
		d := float64(in.D)
		if j > 0 {
			mu := in.MuN
			if word&1 == 1 {
				mu = in.MuD
			}
			o.add(id, id>>1, mu)
		}
		if j == k {
			o.add(id, lossState, n*(in.LambdaN+d*in.LambdaD))
			return
		}
		nodeRate := n * in.LambdaN
		driveRate := n * d * in.LambdaD
		if j == k-1 {
			hN := hAt(word << 1)
			hD := hAt(word<<1 | 1)
			o.add(id, id<<1, nodeRate*(1-hN))
			o.add(id, id<<1|1, driveRate*(1-hD))
			o.add(id, lossState, nodeRate*hN+driveRate*hD)
		} else {
			o.add(id, id<<1, nodeRate)
			o.add(id, id<<1|1, driveRate)
		}
		emit(j+1, word<<1)
		emit(j+1, word<<1|1)
	}
	emit(0, 0)
	return o
}

// oracleIR emits the IR birth-death chain of fault tolerance k for in.
func oracleIR(in closedform.IRInputs, k int) oracleEdges {
	var o oracleEdges
	n := float64(in.N)
	lambda := in.LambdaN + in.LambdaArray
	kk := combinat.CriticalFraction(in.N, in.R, k)
	for i := 0; i < k; i++ {
		o.add(i, i+1, (n-float64(i))*lambda)
		if i > 0 {
			o.add(i, i-1, in.MuN)
		}
	}
	o.add(k, k-1, in.MuN)
	o.add(k, lossState, (n-float64(k))*(lambda+kk*in.LambdaSector))
	return o
}

// matchOracle fails the test unless the topology t and the class values
// vals gather, edge by edge, exactly the oracle's endpoints and rate
// bits.
func matchOracle(t *testing.T, what string, top *topology, vals []float64, want oracleEdges) {
	t.Helper()
	if len(top.ends) != len(want.ends) {
		t.Fatalf("%s: %d edges, oracle %d", what, len(top.ends), len(want.ends))
	}
	for i, ee := range top.ends {
		got := vals[top.class[i]]
		if ee != want.ends[i] || math.Float64bits(got) != math.Float64bits(want.rates[i]) {
			t.Fatalf("%s: emission %d is %v at %v (class %d), oracle %v at %v",
				what, i, ee, got, top.class[i], want.ends[i], want.rates[i])
		}
	}
}

// nirTopology walks the NIR topology of fault tolerance k once.
func nirTopology(k int) *topology {
	top := &topology{}
	(&nirEmitter{k: k}).walk(top, 0, 0)
	return top
}

// One-bit neighbours of in's h_α inputs: N, R, d and C·HER each with
// their lowest bit flipped, so a refiller that kept h_α too long would
// show a mismatch. Neighbours with invalid geometry are skipped.
func hNeighbours(in closedform.NIRInputs, k int) []closedform.NIRInputs {
	var out []closedform.NIRInputs
	for i := 0; i < 4; i++ {
		nb := in
		switch i {
		case 0:
			nb.N ^= 1
		case 1:
			nb.R ^= 1
		case 2:
			nb.D ^= 1
		case 3:
			nb.CHER = math.Float64frombits(math.Float64bits(nb.CHER) ^ 1)
		}
		if nb.N > k+1 && nb.R > k && nb.R <= nb.N && nb.D >= 1 {
			out = append(out, nb)
		}
	}
	return out
}

// The class emitters against the per-edge oracle, bit for bit, at
// NIR and IR k = 1–10: random inputs, h_α clamped at 1 (a large C·HER),
// zero rates, and — through one refiller's Emit, cell after cell —
// h_α reused only while N, R, d and C·HER stay bit-equal: every cell
// is followed by its one-bit neighbours and then by itself again.
func TestClassEmittersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for k := 1; k <= 10; k++ {
		top := nirTopology(k)
		if got := len(top.class); got != len(oracleNIR(randomNIRInputs(rng, k), k).ends) {
			t.Fatalf("k=%d: walk emits %d edges", k, got)
		}
		r := AcquireNIRRefiller(randomNIRInputs(rng, k), k)
		var vals []float64
		check := func(what string, in closedform.NIRInputs) {
			t.Helper()
			vals = r.Emit(vals, in)
			if len(vals) != 5*k+1 {
				t.Fatalf("k=%d %s: %d class values, want %d", k, what, len(vals), 5*k+1)
			}
			matchOracle(t, what, top, vals, oracleNIR(in, k))
		}
		for trial := 0; trial < 30; trial++ {
			in := randomNIRInputs(rng, k)
			switch trial % 5 {
			case 1:
				in.CHER = 0.5 + rng.Float64() // clamps h_α of node-heavy words
			case 2:
				in.LambdaN, in.MuD = 0, 0
			case 3:
				in.LambdaD, in.MuN, in.CHER = 0, 0, 0
			}
			check("random", in)
			for _, nb := range hNeighbours(in, k) {
				check("one-bit neighbour", nb)
			}
			check("repeat", in)
		}
		r.Release()

		ir := AcquireIRRefiller(randomIRInputs(rng, k), k)
		irTop := &topology{}
		(&irEmitter{k: k}).walk(irTop)
		for trial := 0; trial < 30; trial++ {
			in := randomIRInputs(rng, k)
			if trial%3 == 1 {
				in.LambdaN, in.LambdaArray, in.LambdaSector = 0, 0, 0
			}
			matchOracle(t, "IR", irTop, ir.Emit(nil, in), oracleIR(in, k))
		}
		ir.Release()
	}
}

// The walk uses every one of the 5k+1 classes the class vector holds.
func TestNIRClassLayout(t *testing.T) {
	for k := 1; k <= 10; k++ {
		top := nirTopology(k)
		used := make([]bool, 5*k+1)
		for _, c := range top.class {
			used[c] = true
		}
		for c, u := range used {
			if !u {
				t.Errorf("k=%d: class %d of %d is never emitted", k, c, len(used))
			}
		}
	}
}

// FuzzNIRClassesMatchOracle mutates NIR inputs — geometry, rates of any
// sign or magnitude, Inf and NaN included — and requires the class
// emitter to reproduce the per-edge oracle bit for bit, or both to
// refuse the geometry. Each input is emitted after a fixed warm cell
// and then again, so h_α reuse and invalidation are both exercised.
func FuzzNIRClassesMatchOracle(f *testing.F) {
	f.Add(uint8(3), 20, 19, 12, 2e-6, 3e-6, 0.05, 0.2, 0.5)
	f.Add(uint8(5), 64, 48, 12, 6.7e-6, 2e-5, 0.04, 0.5, 8e-3)
	f.Add(uint8(1), 3, 2, 1, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(7), 255, 48, 24, 1e-300, 1e300, math.Inf(1), 1.0, math.NaN())
	f.Fuzz(func(t *testing.T, k8 uint8, n, r, d int, lambdaN, lambdaD, muN, muD, cher float64) {
		k := 1 + int(k8%10)
		in := closedform.NIRInputs{N: n, R: r, D: d, LambdaN: lambdaN, LambdaD: lambdaD, MuN: muN, MuD: muD, CHER: cher}
		if n <= k+1 || n > 1<<12 || r <= k || r > n || d < 1 || d > 1<<10 {
			return // geometry the emitters refuse (or too large to fuzz quickly)
		}
		warm := closedform.NIRInputs{N: k + 2, R: k + 1, D: 1, LambdaN: 1e-6, LambdaD: 1e-6, MuN: 1, MuD: 1, CHER: 1e-3}
		e := nirEmitter{k: k}
		top := nirTopology(k)
		var vals []float64
		for _, x := range []closedform.NIRInputs{warm, in, in} {
			vals = e.fill(vals, x)
			matchOracle(t, "fuzz", top, vals, oracleNIR(x, k))
		}
	})
}
