package closedform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/combinat"
	"repro/internal/linalg"
	"repro/internal/params"
	"repro/internal/rebuild"
)

// baselineArray returns the paper's baseline internal array inputs with the
// restripe rate from the rebuild model.
func baselineArray() ArrayInputs {
	p := params.Baseline()
	return ArrayInputs{
		D:       p.DrivesPerNode,
		LambdaD: p.DriveFailureRate(),
		MuD:     rebuild.Compute(p, 1).Restripe,
		CHER:    p.CHER(),
	}
}

func TestRAID5ApproxVsExact(t *testing.T) {
	in := baselineArray()
	exact := RAID5MTTDLExact(in)
	approx := RAID5MTTDL(in)
	if linalg.RelDiff(exact, approx) > 0.01 {
		t.Errorf("RAID5 exact %v vs approx %v differ by more than 1%%", exact, approx)
	}
}

func TestRAID5KnownMagnitude(t *testing.T) {
	// With baseline parameters the restripe-sector-error term dominates:
	// λ_S = d(d-1)λ·C·HER ≈ 1.06e-5/h, so MTTDL ≈ 1/λ_S·... sanity-check
	// the order of magnitude only (1e4..1e6 hours).
	got := RAID5MTTDL(baselineArray())
	if got < 1e4 || got > 1e6 {
		t.Errorf("baseline RAID5 MTTDL = %v h, want within [1e4, 1e6]", got)
	}
}

func TestArrayRates(t *testing.T) {
	in := baselineArray()
	d := float64(in.D)
	wantD5 := d * (d - 1) * in.LambdaD * in.LambdaD / in.MuD
	if got := ArrayFailureRate(1, in); linalg.RelDiff(got, wantD5) > 1e-12 {
		t.Errorf("λ_D(RAID5) = %v, want %v", got, wantD5)
	}
	wantS5 := d * (d - 1) * in.LambdaD * in.CHER
	if got := SectorErrorRate(1, in); linalg.RelDiff(got, wantS5) > 1e-12 {
		t.Errorf("λ_S(RAID5) = %v, want %v", got, wantS5)
	}
	wantD6 := d * (d - 1) * (d - 2) * math.Pow(in.LambdaD, 3) / (in.MuD * in.MuD)
	if got := ArrayFailureRate(2, in); linalg.RelDiff(got, wantD6) > 1e-12 {
		t.Errorf("λ_D(RAID6) = %v, want %v", got, wantD6)
	}
	wantS6 := d * (d - 1) * (d - 2) * in.LambdaD * in.LambdaD * in.CHER / in.MuD
	if got := SectorErrorRate(2, in); linalg.RelDiff(got, wantS6) > 1e-12 {
		t.Errorf("λ_S(RAID6) = %v, want %v", got, wantS6)
	}
	// m=0: no internal redundancy, λ_D is the raw drive failure rate sum.
	if got := ArrayFailureRate(0, in); linalg.RelDiff(got, d*in.LambdaD) > 1e-12 {
		t.Errorf("λ_D(m=0) = %v, want %v", got, d*in.LambdaD)
	}
}

func TestRAID6BeatsRAID5AtArrayLevel(t *testing.T) {
	in := baselineArray()
	if RAID6MTTDL(in) <= RAID5MTTDL(in) {
		t.Error("RAID6 array MTTDL should exceed RAID5's")
	}
}

func TestMTTDLConsistentWithRates(t *testing.T) {
	// MTTDL ≈ 1/(λ_D + λ_S) for both RAID levels (the two loss paths).
	in := baselineArray()
	for m, mttdl := range map[int]float64{1: RAID5MTTDL(in), 2: RAID6MTTDL(in)} {
		want := 1 / (ArrayFailureRate(m, in) + SectorErrorRate(m, in))
		if linalg.RelDiff(mttdl, want) > 1e-9 {
			t.Errorf("m=%d: MTTDL %v vs 1/(λ_D+λ_S) %v", m, mttdl, want)
		}
	}
}

// baselineIR returns node-level inputs for internal RAID 5 at baseline with
// fault tolerance t.
func baselineIR(t int) IRInputs {
	p := params.Baseline()
	arr := baselineArray()
	rates := rebuild.Compute(p, t)
	return IRInputs{
		N:            p.NodeSetSize,
		R:            p.RedundancySetSize,
		LambdaN:      p.NodeFailureRate(),
		LambdaArray:  ArrayFailureRate(1, arr),
		LambdaSector: SectorErrorRate(1, arr),
		MuN:          rates.NodeRebuild,
	}
}

func TestIRMTTDLMatchesPrintedNFT1(t *testing.T) {
	in := baselineIR(1)
	n := float64(in.N)
	lambda := in.LambdaN + in.LambdaArray
	want := in.MuN / (n * (n - 1) * lambda * (lambda + in.LambdaSector))
	if got := IRMTTDL(in, 1); linalg.RelDiff(got, want) > 1e-12 {
		t.Errorf("IRMTTDL(1) = %v, want %v", got, want)
	}
}

func TestIRMTTDLMatchesPrintedNFT2And3(t *testing.T) {
	in2 := baselineIR(2)
	n := float64(in2.N)
	lambda := in2.LambdaN + in2.LambdaArray
	k2 := combinat.CriticalFraction(in2.N, in2.R, 2)
	want2 := in2.MuN * in2.MuN / (n * (n - 1) * (n - 2) * lambda * lambda * (lambda + k2*in2.LambdaSector))
	if got := IRMTTDL(in2, 2); linalg.RelDiff(got, want2) > 1e-12 {
		t.Errorf("IRMTTDL(2) = %v, want %v", got, want2)
	}
	in3 := baselineIR(3)
	lambda = in3.LambdaN + in3.LambdaArray
	k3 := combinat.CriticalFraction(in3.N, in3.R, 3)
	want3 := math.Pow(in3.MuN, 3) / (n * (n - 1) * (n - 2) * (n - 3) * math.Pow(lambda, 3) * (lambda + k3*in3.LambdaSector))
	if got := IRMTTDL(in3, 3); linalg.RelDiff(got, want3) > 1e-12 {
		t.Errorf("IRMTTDL(3) = %v, want %v", got, want3)
	}
}

func TestIRApproxVsExactNFT1(t *testing.T) {
	in := baselineIR(1)
	if linalg.RelDiff(IRMTTDL(in, 1), IRMTTDLExactNFT1(in)) > 0.01 {
		t.Errorf("IR k=1 approx %v vs exact %v", IRMTTDL(in, 1), IRMTTDLExactNFT1(in))
	}
}

func TestIRMTTDLIncreasesWithFaultTolerance(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 3; k++ {
		got := IRMTTDL(baselineIR(k), k)
		if got <= prev {
			t.Errorf("IRMTTDL(k=%d) = %v not greater than k-1's %v", k, got, prev)
		}
		prev = got
	}
}

// baselineNIR returns no-internal-RAID inputs at baseline with fault
// tolerance t.
func baselineNIR(t int) NIRInputs {
	p := params.Baseline()
	rates := rebuild.Compute(p, t)
	return NIRInputs{
		N:       p.NodeSetSize,
		R:       p.RedundancySetSize,
		D:       p.DrivesPerNode,
		LambdaN: p.NodeFailureRate(),
		LambdaD: p.DriveFailureRate(),
		MuN:     rates.NodeRebuild,
		MuD:     rates.DriveRebuild,
		CHER:    p.CHER(),
	}
}

// The general theorem must reduce exactly to the printed k=1..3 formulas.
func TestGeneralTheoremMatchesPrintedFormulas(t *testing.T) {
	for k, printed := range map[int]func(NIRInputs) float64{
		1: NIRMTTDL1,
		2: NIRMTTDL2,
		3: NIRMTTDL3,
	} {
		in := baselineNIR(k)
		got := NIRMTTDLGeneral(in, k)
		want := printed(in)
		if linalg.RelDiff(got, want) > 1e-12 {
			t.Errorf("k=%d: general theorem %v vs printed %v", k, got, want)
		}
	}
}

// ...and also under randomized (non-baseline) parameters, confirming the
// algebraic identity rather than a numeric coincidence.
func TestGeneralTheoremMatchesPrintedFormulasRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := NIRInputs{
			N:       8 + rng.Intn(120),
			R:       4 + rng.Intn(4),
			D:       1 + rng.Intn(24),
			LambdaN: 1e-7 * (1 + 99*rng.Float64()),
			LambdaD: 1e-7 * (1 + 99*rng.Float64()),
			MuN:     0.01 * (1 + 99*rng.Float64()),
			MuD:     0.01 * (1 + 99*rng.Float64()),
			CHER:    0.2 * rng.Float64(),
		}
		for k, printed := range map[int]func(NIRInputs) float64{1: NIRMTTDL1, 2: NIRMTTDL2, 3: NIRMTTDL3} {
			if linalg.RelDiff(NIRMTTDLGeneral(in, k), printed(in)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// For the paper's particular h_α structure the L_k recursion collapses to
// d·h·(λ_N+λ_d)·(μ_d·λ_N+μ_N·λ_d)^(k-1).
func TestLKCollapsedForm(t *testing.T) {
	in := baselineNIR(2)
	for k := 1; k <= 5; k++ {
		hset := combinat.AppendHSet(nil, in.N, in.R, in.D, in.CHER, k)
		got := LK(in, hset)
		h := combinat.BaseH(in.N, in.R, k, in.CHER)
		want := float64(in.D) * h * (in.LambdaN + in.LambdaD) *
			math.Pow(in.MuD*in.LambdaN+in.MuN*in.LambdaD, float64(k-1))
		if linalg.RelDiff(got, want) > 1e-12 {
			t.Errorf("k=%d: L_k = %v, collapsed form %v", k, got, want)
		}
	}
}

func TestLKBadLengthPanics(t *testing.T) {
	in := baselineNIR(2)
	for _, bad := range [][]float64{nil, {1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LK(len=%d) did not panic", len(bad))
				}
			}()
			LK(in, bad)
		}()
	}
}

func TestNIRMTTDLIncreasesWithFaultTolerance(t *testing.T) {
	prev := 0.0
	for k := 1; k <= 5; k++ {
		got := NIRMTTDLGeneral(baselineNIR(min(k, 3)), k)
		if got <= prev {
			t.Errorf("NIR MTTDL(k=%d) = %v not greater than k-1's %v", k, got, prev)
		}
		prev = got
	}
}

func TestNIRMTTDLDecreasesWithNodeSetSize(t *testing.T) {
	in := baselineNIR(2)
	prev := math.Inf(1)
	for _, n := range []int{16, 32, 64, 128} {
		in.N = n
		got := NIRMTTDLGeneral(in, 2)
		if got >= prev {
			t.Errorf("MTTDL should shrink with N: N=%d gives %v >= %v", n, got, prev)
		}
		prev = got
	}
}

func TestValidationPanics(t *testing.T) {
	t.Run("RAID5 too few drives", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		RAID5MTTDL(ArrayInputs{D: 1, LambdaD: 1e-6, MuD: 1, CHER: 0})
	})
	t.Run("RAID6 too few drives", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		RAID6MTTDL(ArrayInputs{D: 2, LambdaD: 1e-6, MuD: 1, CHER: 0})
	})
	t.Run("sector rate m=0", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		SectorErrorRate(0, baselineArray())
	})
	t.Run("IR bad k", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		IRMTTDL(baselineIR(1), 0)
	})
	t.Run("NIR R too small for k", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		in := baselineNIR(1)
		in.R = 3
		NIRMTTDLGeneral(in, 3)
	})
}
