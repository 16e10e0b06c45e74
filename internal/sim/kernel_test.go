package sim

import (
	"math/rand"
	"testing"
)

// TestKernelTransitionsZeroAlloc pins the allocation-free kernel: on a
// warm record, a critical NIR arrival that draws h_α and a shock reuse the
// record's scratch (failure word, live-node list, outstanding list) and
// the queue's slabs, making no allocations.
func TestKernelTransitionsZeroAlloc(t *testing.T) {
	sc := parallelTestScenario() // NIR, T = 1, CHER > 0
	sc.ShockRate, sc.ShockSize = 1e-3, 2
	s := newMissionShard(sc, newCalendarQueue(), nil)
	s.rng = rand.New(rand.NewSource(4))
	b := &s.records[0]
	b.inUse = true
	fresh := func() {
		s.q.reset()
		b.reset()
	}
	critical := func() {
		fresh()
		// The first failure of a T = 1 set arrives exactly at the
		// tolerance: the triggered rebuild is critical and draws h.
		b.nirDriveFailure(0, 0)
	}
	shock := func() {
		fresh()
		b.shock()
	}
	for i := 0; i < 100; i++ {
		critical()
		shock()
	}
	if avg := testing.AllocsPerRun(1000, critical); avg != 0 {
		t.Errorf("critical NIR arrival allocates %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, shock); avg != 0 {
		t.Errorf("shock allocates %v allocs/op, want 0", avg)
	}
}
