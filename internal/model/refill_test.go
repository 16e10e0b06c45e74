package model

import (
	"math/rand"
	"testing"

	"repro/internal/closedform"
	"repro/internal/combinat"
	"repro/internal/markov"
)

// chainsBitwiseEqual fails the test unless a and b have identical
// topology and bit-identical rates and exit sums. Both chains must come
// from the same builder family so state indexing matches.
func chainsBitwiseEqual(t *testing.T, a, b *markov.Chain) {
	t.Helper()
	if a.NumStates() != b.NumStates() {
		t.Fatalf("state counts differ: %d vs %d", a.NumStates(), b.NumStates())
	}
	for i := 0; i < a.NumStates(); i++ {
		if a.StateName(i) != b.StateName(i) {
			t.Fatalf("state %d named %q vs %q", i, a.StateName(i), b.StateName(i))
		}
		ea, eb := a.Successors(i), b.Successors(i)
		if len(ea) != len(eb) {
			t.Fatalf("state %q out-degree %d vs %d", a.StateName(i), len(ea), len(eb))
		}
		for j := range ea {
			if ea[j].To != eb[j].To || ea[j].Rate != eb[j].Rate {
				t.Fatalf("state %q edge %d: (%d, %v) vs (%d, %v)",
					a.StateName(i), j, ea[j].To, ea[j].Rate, eb[j].To, eb[j].Rate)
			}
		}
		if a.ExitRate(i) != b.ExitRate(i) {
			t.Fatalf("state %q exit %v vs %v", a.StateName(i), a.ExitRate(i), b.ExitRate(i))
		}
	}
}

func randomNIRInputs(rng *rand.Rand, k int) closedform.NIRInputs {
	n := k + 2 + rng.Intn(50)
	rlo := k + 1
	r := rlo + rng.Intn(n-rlo+1)
	return closedform.NIRInputs{
		N:       n,
		R:       r,
		D:       1 + rng.Intn(12),
		LambdaN: rng.Float64() * 1e-3,
		LambdaD: rng.Float64() * 1e-3,
		MuN:     rng.Float64() * 10,
		MuD:     rng.Float64() * 10,
		CHER:    rng.Float64() * 1e-2,
	}
}

func randomIRInputs(rng *rand.Rand, k int) closedform.IRInputs {
	n := k + 2 + rng.Intn(50)
	rlo := k + 1
	r := rlo + rng.Intn(n-rlo+1)
	return closedform.IRInputs{
		N:            n,
		R:            r,
		LambdaN:      rng.Float64() * 1e-3,
		LambdaArray:  rng.Float64() * 1e-3,
		LambdaSector: rng.Float64() * 1e-2,
		MuN:          rng.Float64() * 10,
	}
}

// The refill program must track the topology build in lockstep: for any
// valid inputs, Refill produces a chain bit-identical to a fresh
// NIRChain build — every rate and every exit sum — up to k = 7, the
// deepest chains the exact-chain sweeps serve.
func TestNIRRefillerLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= 7; k++ {
		r := AcquireNIRRefiller(randomNIRInputs(rng, k), k)
		for trial := 0; trial < 25; trial++ {
			in := randomNIRInputs(rng, k)
			chainsBitwiseEqual(t, r.Refill(in), NIRChain(in, k))
		}
		r.Release()
	}
}

func TestIRRefillerLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for k := 1; k <= 7; k++ {
		r := AcquireIRRefiller(randomIRInputs(rng, k), k)
		for trial := 0; trial < 25; trial++ {
			in := randomIRInputs(rng, k)
			chainsBitwiseEqual(t, r.Refill(in), IRChain(in, k))
		}
		r.Release()
	}
}

// With a large C·HER, d = 12 and R close to N, h_α exceeds 1 for
// node-heavy words: the refill must clamp exactly where the topology
// build does, leaving the clamped critical edges at rate zero.
func TestNIRRefillerClampsH(t *testing.T) {
	const k = 3
	in := closedform.NIRInputs{
		N: 20, R: 19, D: 12,
		LambdaN: 2e-6, LambdaD: 3e-6, MuN: 0.05, MuD: 0.2,
		CHER: 0.5,
	}
	nnn := combinat.Word{combinat.NodeFailure, combinat.NodeFailure, combinat.NodeFailure}
	ddd := combinat.Word{combinat.DriveFailure, combinat.DriveFailure, combinat.DriveFailure}
	if h := combinat.H(in.N, in.R, in.D, in.CHER, nnn); h <= 1 {
		t.Fatalf("h_NNN = %v, want > 1 so the clamp engages", h)
	}
	if h := combinat.H(in.N, in.R, in.D, in.CHER, ddd); h >= 1 {
		t.Fatalf("h_ddd = %v, want < 1 so some words stay unclamped", h)
	}
	r := AcquireNIRRefiller(randomNIRInputs(rand.New(rand.NewSource(29)), k), k)
	defer r.Release()
	got := r.Refill(in)
	chainsBitwiseEqual(t, got, NIRChain(in, k))
	from, _ := got.StateIndex("NN0")
	to, _ := got.StateIndex("NNN")
	for _, e := range got.Successors(from) {
		if e.To == to && e.Rate != 0 {
			t.Errorf("clamped edge NN0→NNN has rate %v, want 0", e.Rate)
		}
	}
}

// One refiller refilled with a different geometry and C·HER every call
// must rebuild its h_α table each time: a table left over from the
// previous call would show up as a rate mismatch.
func TestNIRRefillerGeometryChanges(t *testing.T) {
	const k = 4
	inputs := []closedform.NIRInputs{
		{N: 10, R: 6, D: 2, CHER: 1e-3},
		{N: 40, R: 12, D: 12, CHER: 0.3},
		{N: 6, R: 5, D: 1, CHER: 0},
		{N: 64, R: 48, D: 7, CHER: 2e-2},
		{N: 10, R: 6, D: 2, CHER: 1e-3},
	}
	r := AcquireNIRRefiller(inputs[0], k)
	defer r.Release()
	for i, in := range inputs {
		in.LambdaN, in.LambdaD = 1e-5*float64(i+1), 4e-6
		in.MuN, in.MuD = 0.1, 0.5/float64(i+1)
		got := r.Refill(in)
		chainsBitwiseEqual(t, got, NIRChain(in, k))
	}
}

// A recycled refiller refills exactly like the one that was released —
// pooling must be invisible in results.
func TestRefillerPoolRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const k = 3
	in := randomNIRInputs(rng, k)
	r1 := AcquireNIRRefiller(in, k)
	fresh := NIRChain(in, k)
	chainsBitwiseEqual(t, r1.Chain(), fresh)
	r1.Release()
	r2 := AcquireNIRRefiller(in, k)
	chainsBitwiseEqual(t, r2.Chain(), fresh)
	r2.Release()
}

// Refill is the batch sweep's per-cell chain cost, and a warm
// Acquire→Refill→Release round trip is every exact-chain AnalyzeCtx's;
// neither may allocate.
func TestRefillAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	nirIn := randomNIRInputs(rng, 4)
	nir := AcquireNIRRefiller(nirIn, 4)
	defer nir.Release()
	nir.Refill(nirIn) // warmup
	if n := testing.AllocsPerRun(100, func() { nir.Refill(nirIn) }); n != 0 {
		t.Errorf("NIRRefiller.Refill allocates %v times per run, want 0", n)
	}
	irIn := randomIRInputs(rng, 4)
	ir := AcquireIRRefiller(irIn, 4)
	defer ir.Release()
	ir.Refill(irIn)
	if n := testing.AllocsPerRun(100, func() { ir.Refill(irIn) }); n != 0 {
		t.Errorf("IRRefiller.Refill allocates %v times per run, want 0", n)
	}
	// A warm class fill — Emit into the previous cell's buffer — is the
	// batched sweep's per-cell emission: none either, also when the
	// cell's h_α inputs change and the table is re-evaluated.
	nirAlt := nirIn
	nirAlt.CHER *= 1.5
	vals := nir.Emit(nil, nirIn)
	if n := testing.AllocsPerRun(100, func() { vals = nir.Emit(vals, nirIn) }); n != 0 {
		t.Errorf("warm NIRRefiller.Emit allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		vals = nir.Emit(vals, nirAlt)
		vals = nir.Emit(vals, nirIn)
	}); n != 0 {
		t.Errorf("warm NIRRefiller.Emit with new h_α inputs allocates %v times per run, want 0", n)
	}
	irVals := ir.Emit(nil, irIn)
	if n := testing.AllocsPerRun(100, func() { irVals = ir.Emit(irVals, irIn) }); n != 0 {
		t.Errorf("warm IRRefiller.Emit allocates %v times per run, want 0", n)
	}
	if raceEnabled {
		return // sync.Pool drops Puts at random under the race detector
	}
	if n := testing.AllocsPerRun(100, func() {
		r := AcquireNIRRefiller(nirIn, 4)
		r.Refill(nirIn)
		r.Release()
	}); n != 0 {
		t.Errorf("warm NIR Acquire→Refill→Release allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r := AcquireIRRefiller(irIn, 4)
		r.Refill(irIn)
		r.Release()
	}); n != 0 {
		t.Errorf("warm IR Acquire→Refill→Release allocates %v times per run, want 0", n)
	}
}

// Refill validates geometry with the builders' messages.
func TestRefillGeometryPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r := AcquireNIRRefiller(randomNIRInputs(rng, 2), 2)
	defer r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Refill with invalid geometry did not panic")
		}
	}()
	r.Refill(closedform.NIRInputs{N: 3, R: 2, D: 1}) // N <= k+1
}
