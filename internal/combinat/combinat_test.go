package combinat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialKnown(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1},
		{5, 0, 1},
		{5, 5, 1},
		{5, 2, 10},
		{64, 8, 4426165368},
		{10, 3, 120},
		{5, 6, 0},
		{5, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); math.Abs(got-c.want) > c.want*1e-12 {
			t.Errorf("Binomial(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialNegativeNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, 0) did not panic")
		}
	}()
	Binomial(-1, 0)
}

// Pascal's rule: C(n,k) = C(n-1,k-1) + C(n-1,k).
func TestBinomialPascalProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 1
		k := int(kRaw) % (n + 1)
		lhs := Binomial(n, k)
		rhs := Binomial(n-1, k-1) + Binomial(n-1, k)
		return math.Abs(lhs-rhs) <= lhs*1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Symmetry: C(n,k) == C(n,n-k).
func TestBinomialSymmetryProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 50)
		k := int(kRaw) % (n + 1)
		return math.Abs(Binomial(n, k)-Binomial(n, n-k)) <= Binomial(n, k)*1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFallingFactorial(t *testing.T) {
	cases := []struct {
		n    float64
		k    int
		want float64
	}{
		{64, 0, 1},
		{64, 1, 64},
		{64, 2, 64 * 63},
		{64, 3, 64 * 63 * 62},
		{5, 6, 0}, // passes through zero
	}
	for _, c := range cases {
		if got := FallingFactorial(c.n, c.k); got != c.want {
			t.Errorf("FallingFactorial(%v,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestCriticalFractionPaperValues(t *testing.T) {
	// Section 5.2.1 with N=64, R=8.
	n, r := 64, 8
	if got := CriticalFraction(n, r, 1); got != 1 {
		t.Errorf("k1 = %v, want 1", got)
	}
	k2 := CriticalFraction(n, r, 2)
	want2 := 7.0 / 63.0
	if math.Abs(k2-want2) > 1e-15 {
		t.Errorf("k2 = %v, want %v", k2, want2)
	}
	k3 := CriticalFraction(n, r, 3)
	want3 := 7.0 * 6.0 / (63.0 * 62.0)
	if math.Abs(k3-want3) > 1e-15 {
		t.Errorf("k3 = %v, want %v", k3, want3)
	}
}

// The closed form k_j must agree with the binomial-ratio definition
// C(N-j, R-j)/C(N-1, R-1).
func TestCriticalFractionMatchesBinomialRatio(t *testing.T) {
	for n := 8; n <= 72; n += 8 {
		for r := 4; r <= 8 && r <= n; r++ {
			for j := 1; j <= 3 && j <= r; j++ {
				got := CriticalFraction(n, r, j)
				want := Binomial(n-j, r-j) / Binomial(n-1, r-1)
				if math.Abs(got-want)/want > 1e-12 {
					t.Errorf("N=%d R=%d j=%d: closed form %v vs binomial ratio %v", n, r, j, got, want)
				}
			}
		}
	}
}

func TestBaseHPaperSpecialCases(t *testing.T) {
	n, r := 64, 8
	cher := 0.024 // 300 GB at 1e-14 errors/bit
	if got, want := BaseH(n, r, 1, cher), 7*cher; math.Abs(got-want) > 1e-15 {
		t.Errorf("h(k=1) = %v, want %v", got, want)
	}
	if got, want := BaseH(n, r, 2, cher), 7*6/63.0*cher; math.Abs(got-want) > 1e-15 {
		t.Errorf("h(k=2) = %v, want %v", got, want)
	}
	if got, want := BaseH(n, r, 3, cher), 7*6*5/(63.0*62.0)*cher; math.Abs(got-want) > 1e-15 {
		t.Errorf("h(k=3) = %v, want %v", got, want)
	}
}

func TestHWordScaling(t *testing.T) {
	n, r, d := 64, 8, 12
	cher := 0.024
	h2 := BaseH(n, r, 2, cher)
	cases := []struct {
		word Word
		want float64
	}{
		{Word{NodeFailure, NodeFailure}, float64(d) * h2},
		{Word{NodeFailure, DriveFailure}, h2},
		{Word{DriveFailure, NodeFailure}, h2},
		{Word{DriveFailure, DriveFailure}, h2 / float64(d)},
	}
	for _, c := range cases {
		if got := H(n, r, d, cher, c.word); math.Abs(got-c.want) > 1e-18 {
			t.Errorf("h_%s = %v, want %v", c.word, got, c.want)
		}
	}
	// k=3 spot checks from Section 5.2.2.
	h3 := BaseH(n, r, 3, cher)
	if got := H(n, r, d, cher, Word{NodeFailure, NodeFailure, NodeFailure}); math.Abs(got-float64(d)*h3) > 1e-18 {
		t.Errorf("h_NNN = %v, want %v", got, float64(d)*h3)
	}
	if got := H(n, r, d, cher, Word{DriveFailure, DriveFailure, DriveFailure}); math.Abs(got-h3/float64(d*d)) > 1e-21 {
		t.Errorf("h_ddd = %v, want %v", got, h3/float64(d*d))
	}
	if got := H(n, r, d, cher, Word{NodeFailure, DriveFailure, DriveFailure}); math.Abs(got-h3/float64(d)) > 1e-20 {
		t.Errorf("h_Ndd = %v, want %v", got, h3/float64(d))
	}
}

func TestHEmptyWordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("H(empty word) did not panic")
		}
	}()
	H(64, 8, 12, 0.024, Word{})
}

func TestAllWordsOrderAndCount(t *testing.T) {
	w1 := AllWords(1)
	if len(w1) != 2 || w1[0].String() != "N" || w1[1].String() != "d" {
		t.Fatalf("AllWords(1) = %v", w1)
	}
	w2 := AllWords(2)
	wantOrder := []string{"NN", "Nd", "dN", "dd"}
	if len(w2) != 4 {
		t.Fatalf("len(AllWords(2)) = %d, want 4", len(w2))
	}
	for i, w := range w2 {
		if w.String() != wantOrder[i] {
			t.Errorf("AllWords(2)[%d] = %s, want %s", i, w, wantOrder[i])
		}
	}
	for k := 0; k <= 6; k++ {
		if got := len(AllWords(k)); got != 1<<k {
			t.Errorf("len(AllWords(%d)) = %d, want %d", k, got, 1<<k)
		}
	}
}

// The recursive split used by the appendix: the first half of AllWords(k)
// is N-prefixed, the second half is d-prefixed.
func TestAllWordsRecursiveStructure(t *testing.T) {
	for k := 1; k <= 5; k++ {
		words := AllWords(k)
		half := len(words) / 2
		for i, w := range words {
			wantFirst := NodeFailure
			if i >= half {
				wantFirst = DriveFailure
			}
			if w[0] != wantFirst {
				t.Errorf("k=%d word %d = %s: first letter %c, want %c", k, i, w, w[0], wantFirst)
			}
		}
	}
}

func TestHSetMatchesIndividualH(t *testing.T) {
	n, r, d, cher := 64, 8, 12, 0.024
	for k := 1; k <= 4; k++ {
		set := HSet(n, r, d, cher, k)
		words := AllWords(k)
		if len(set) != len(words) {
			t.Fatalf("k=%d: len(HSet) = %d, want %d", k, len(set), len(words))
		}
		for i, w := range words {
			if set[i] != H(n, r, d, cher, w) {
				t.Errorf("k=%d: HSet[%d] != H(%s)", k, i, w)
			}
		}
	}
}

// The closed-form HSet must reproduce the word-by-word reference —
// h_α computed from AllWords(k) and H — bit for bit: the popcount
// shortcut reuses the exact same BaseH and Pow values, so not even the
// last ulp may move.
func TestHSetMatchesWordByWord(t *testing.T) {
	for k := 1; k <= 8; k++ {
		for _, tc := range []struct {
			n, r, d int
			cher    float64
		}{
			{64, 12, 12, 2.4e-2},
			{128, 64, 8, 1e-3},
			{16, 10, 4, 0.5},
		} {
			if tc.r <= k {
				continue
			}
			got := HSet(tc.n, tc.r, tc.d, tc.cher, k)
			words := AllWords(k)
			if len(got) != len(words) {
				t.Fatalf("k=%d: HSet has %d entries, want %d", k, len(got), len(words))
			}
			for i, w := range words {
				if want := H(tc.n, tc.r, tc.d, tc.cher, w); got[i] != want {
					t.Errorf("k=%d N=%d R=%d d=%d: HSet[%d] (word %v) = %g, want %g",
						k, tc.n, tc.r, tc.d, i, w, got[i], want)
				}
			}
		}
	}
}
