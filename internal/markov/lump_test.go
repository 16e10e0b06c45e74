package markov

import (
	"context"
	"strings"
	"testing"

	"repro/internal/linalg"
)

// symmetricFork builds 0 →1→ {a, b} with identical dynamics in a and b.
func symmetricFork(mu float64) *Chain {
	c := NewChain()
	c.AddRate("0", "a", 1)
	c.AddRate("0", "b", 1)
	c.AddRate("a", "0", mu)
	c.AddRate("b", "0", mu)
	c.AddRate("a", "A", 2)
	c.AddRate("b", "A", 2)
	c.SetAbsorbing("A")
	return c
}

func TestLumpIdentityPartition(t *testing.T) {
	c := repairable(1, 5, 0.25)
	partition := map[string]string{"0": "p0", "1": "p1", "A": "pA"}
	lumped, err := Lump(c, partition, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MTTA(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MTTA(context.Background(), lumped)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.RelDiff(got, want) > 1e-12 {
		t.Errorf("identity lump changed MTTA: %v vs %v", got, want)
	}
}

func TestLumpSymmetricStatesExact(t *testing.T) {
	c := symmetricFork(4)
	partition := map[string]string{"0": "up", "a": "deg", "b": "deg", "A": "loss"}
	lumped, err := Lump(c, partition, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lumped.NumStates() != 3 {
		t.Errorf("lumped states = %d, want 3", lumped.NumStates())
	}
	want, err := MTTA(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MTTA(context.Background(), lumped)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.RelDiff(got, want) > 1e-12 {
		t.Errorf("lumped MTTA %v vs full %v", got, want)
	}
	// The lumped up→deg rate is the sum of the two branch rates.
	up, _ := lumped.StateIndex("up")
	deg, _ := lumped.StateIndex("deg")
	if r := lumped.Rate(up, deg); r != 2 {
		t.Errorf("lumped rate = %v, want 2", r)
	}
}

func TestLumpStrictRejectsAsymmetry(t *testing.T) {
	c := symmetricFork(4)
	// Break the symmetry: b repairs slower.
	c.AddRate("b", "0", 1) // accumulates to 5 vs a's 4
	partition := map[string]string{"0": "up", "a": "deg", "b": "deg", "A": "loss"}
	_, err := Lump(c, partition, true, 1e-9)
	if err == nil || !strings.Contains(err.Error(), "not lumpable") {
		t.Errorf("err = %v, want lumpability violation", err)
	}
	// Non-strict mode averages instead.
	if _, err := Lump(c, partition, false, 0); err != nil {
		t.Errorf("non-strict lump failed: %v", err)
	}
}

func TestLumpPartitionErrors(t *testing.T) {
	c := repairable(1, 5, 0.25)
	if _, err := Lump(c, map[string]string{"0": "x"}, true, 0); err == nil {
		t.Error("incomplete partition accepted")
	}
	mixed := map[string]string{"0": "x", "1": "y", "A": "y"}
	if _, err := Lump(c, mixed, true, 0); err == nil {
		t.Error("absorbing/transient mix accepted")
	}
}

func TestLumpByDepthPartition(t *testing.T) {
	c := NewChain()
	c.AddRate("00", "N0", 1)
	c.AddRate("00", "d0", 1)
	c.AddRate("N0", "00", 9)
	c.AddRate("d0", "00", 9)
	c.AddRate("N0", "loss", 1)
	c.AddRate("d0", "loss", 1)
	c.SetAbsorbing("loss")
	p := LumpByDepth(c)
	if p["00"] != "depth-0" || p["N0"] != "depth-1" || p["d0"] != "depth-1" || p["loss"] != "loss" {
		t.Errorf("partition = %v", p)
	}
	lumped, err := Lump(c, p, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lumped.NumStates() != 3 {
		t.Errorf("lumped states = %d, want 3", lumped.NumStates())
	}
}

func TestLabelDepth(t *testing.T) {
	cases := map[string]int{
		"00": 0, "0": 0, "2": 2, "N0": 1, "Nd": 2, "ddN": 3, "12": 12,
	}
	for name, want := range cases {
		if got := labelDepth(name); got != want {
			t.Errorf("labelDepth(%q) = %d, want %d", name, got, want)
		}
	}
}
