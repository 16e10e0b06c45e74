package markov

import (
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
)

func TestStateCreationAndLookup(t *testing.T) {
	c := NewChain()
	i0 := c.State("ok")
	i1 := c.State("degraded")
	if i0 != 0 || i1 != 1 {
		t.Fatalf("state indices = %d,%d, want 0,1", i0, i1)
	}
	if again := c.State("ok"); again != i0 {
		t.Errorf("State(existing) = %d, want %d", again, i0)
	}
	if c.NumStates() != 2 {
		t.Errorf("NumStates = %d, want 2", c.NumStates())
	}
	if c.StateName(1) != "degraded" {
		t.Errorf("StateName(1) = %q", c.StateName(1))
	}
	if idx, ok := c.StateIndex("degraded"); !ok || idx != 1 {
		t.Errorf("StateIndex = %d,%v", idx, ok)
	}
	if _, ok := c.StateIndex("missing"); ok {
		t.Error("StateIndex(missing) = ok")
	}
}

func TestInitialDefaultsToFirstState(t *testing.T) {
	c := NewChain()
	if c.Initial() != -1 {
		t.Errorf("empty chain Initial = %d, want -1", c.Initial())
	}
	c.State("a")
	c.State("b")
	if c.Initial() != 0 {
		t.Errorf("Initial = %d, want 0", c.Initial())
	}
	c.SetInitial("b")
	if c.Initial() != 1 {
		t.Errorf("after SetInitial, Initial = %d, want 1", c.Initial())
	}
}

func TestAddRateAccumulates(t *testing.T) {
	c := NewChain()
	c.AddRate("a", "b", 1.5)
	c.AddRate("a", "b", 0.5)
	i, _ := c.StateIndex("a")
	j, _ := c.StateIndex("b")
	if got := c.Rate(i, j); got != 2 {
		t.Errorf("accumulated rate = %v, want 2", got)
	}
	if got := c.ExitRate(i); got != 2 {
		t.Errorf("ExitRate = %v, want 2", got)
	}
}

func TestAddRateZeroIsNoop(t *testing.T) {
	c := NewChain()
	c.AddRate("a", "b", 0)
	if c.NumStates() != 0 {
		t.Errorf("zero-rate AddRate created states: %d", c.NumStates())
	}
}

func TestAddRatePanics(t *testing.T) {
	t.Run("negative", func(t *testing.T) {
		c := NewChain()
		defer func() {
			if recover() == nil {
				t.Error("negative rate did not panic")
			}
		}()
		c.AddRate("a", "b", -1)
	})
	t.Run("self-loop", func(t *testing.T) {
		c := NewChain()
		defer func() {
			if recover() == nil {
				t.Error("self-loop did not panic")
			}
		}()
		c.AddRate("a", "a", 1)
	})
	t.Run("out of absorbing", func(t *testing.T) {
		c := NewChain()
		c.SetAbsorbing("loss")
		defer func() {
			if recover() == nil {
				t.Error("transition out of absorbing state did not panic")
			}
		}()
		c.AddRate("loss", "a", 1)
	})
}

func TestSuccessorsSorted(t *testing.T) {
	c := NewChain()
	c.AddRate("a", "c", 3)
	c.AddRate("a", "b", 2)
	i, _ := c.StateIndex("a")
	succ := c.Successors(i)
	if len(succ) != 2 || succ[0].To > succ[1].To {
		t.Errorf("Successors not sorted: %+v", succ)
	}
}

func TestTransientAndAbsorbingStates(t *testing.T) {
	c := NewChain()
	c.AddRate("ok", "deg", 1)
	c.AddRate("deg", "loss", 1)
	c.SetAbsorbing("loss")
	trans := c.TransientStates()
	abs := c.AbsorbingStates()
	if len(trans) != 2 || len(abs) != 1 {
		t.Fatalf("trans=%v abs=%v", trans, abs)
	}
	if c.StateName(abs[0]) != "loss" {
		t.Errorf("absorbing state = %q", c.StateName(abs[0]))
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		if err := NewChain().Validate(); err == nil {
			t.Error("empty chain validated")
		}
	})
	t.Run("no absorbing", func(t *testing.T) {
		c := NewChain()
		c.AddRate("a", "b", 1)
		c.AddRate("b", "a", 1)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "absorbing") {
			t.Errorf("Validate = %v, want absorbing-state error", err)
		}
	})
	t.Run("dead-end transient", func(t *testing.T) {
		c := NewChain()
		c.AddRate("a", "b", 1)
		c.SetAbsorbing("loss")
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "no outgoing") {
			t.Errorf("Validate = %v, want dead-end error", err)
		}
	})
	t.Run("unreachable absorbing", func(t *testing.T) {
		c := NewChain()
		c.AddRate("a", "b", 1)
		c.AddRate("b", "a", 1)
		c.SetAbsorbing("loss")
		c.AddRate("c", "loss", 1) // reachable only from c, not from initial a
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "reachable") {
			t.Errorf("Validate = %v, want reachability error", err)
		}
	})
	t.Run("valid", func(t *testing.T) {
		c := NewChain()
		c.AddRate("a", "b", 1)
		c.AddRate("b", "loss", 1)
		c.SetAbsorbing("loss")
		if err := c.Validate(); err != nil {
			t.Errorf("Validate = %v, want nil", err)
		}
	})
}

func TestGeneratorRowSumsZero(t *testing.T) {
	c := NewChain()
	c.AddRate("0", "1", 2.5)
	c.AddRate("1", "0", 0.5)
	c.AddRate("1", "2", 1.5)
	c.SetAbsorbing("2")
	q := generator(c)
	for i := 0; i < q.Rows(); i++ {
		var sum float64
		for j := 0; j < q.Cols(); j++ {
			sum += q.At(i, j)
		}
		if math.Abs(sum) > 1e-15 {
			t.Errorf("row %d sums to %v, want 0", i, sum)
		}
	}
	if q.At(0, 0) != -2.5 {
		t.Errorf("q00 = %v, want -2.5", q.At(0, 0))
	}
}

func TestAbsorptionMatrixStructure(t *testing.T) {
	c := NewChain()
	c.AddRate("0", "1", 2)
	c.AddRate("1", "0", 5)
	c.AddRate("1", "A", 3)
	c.SetAbsorbing("A")
	r, trans, initRow := c.AbsorptionMatrix()
	if len(trans) != 2 || initRow != 0 {
		t.Fatalf("trans=%v initRow=%d", trans, initRow)
	}
	// R = [[2, -2], [-5, 8]]: diagonals are total exit rates.
	if r.At(0, 0) != 2 || r.At(0, 1) != -2 || r.At(1, 0) != -5 || r.At(1, 1) != 8 {
		t.Errorf("R =\n%v", r)
	}
}

// generator returns the infinitesimal generator matrix Q over all states:
// off-diagonal entries are transition rates; diagonal entries make row sums
// zero.
func generator(c *Chain) *linalg.Matrix {
	n := len(c.names)
	q := linalg.New(n, n)
	for i := 0; i < n; i++ {
		// Successors iterates edges in target order: the exit-rate sum
		// (and so the whole matrix) is bit-reproducible across runs,
		// which the deterministic parallel layer depends on.
		var exit float64
		for _, e := range c.Successors(i) {
			q.Set(i, e.To, e.Rate)
			exit += e.Rate
		}
		q.Set(i, i, -exit)
	}
	return q
}
