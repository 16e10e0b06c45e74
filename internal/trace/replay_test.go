package trace

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

func replaySystem(t *testing.T, objects int) *storage.System {
	t.Helper()
	sys, err := storage.NewSystem(storage.Config{
		Nodes: 16, DrivesPerNode: 4,
		RedundancySetSize: 8, FaultTolerance: 2,
		DriveCapacityBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := sys.Put(fmt.Sprintf("obj-%03d", i), make([]byte, 8<<10)); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// With prompt rebuilds, a realistic (sparse) failure trace loses nothing:
// the fleet never has more than t outstanding failures.
func TestReplayWithRebuildsLosesNothing(t *testing.T) {
	tr, err := Generate(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys := replaySystem(t, 40)
	rep, err := Replay(t.Context(), tr, sys, Policy{RebuildAfterEachFailure: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ObjectsLost != 0 || rep.UnreadableAtEnd != 0 {
		t.Errorf("losses with prompt rebuilds: %+v", rep)
	}
	if rep.EventsApplied != len(tr.Events) {
		t.Errorf("applied %d of %d events", rep.EventsApplied, len(tr.Events))
	}
	if rep.Rebuilds == 0 {
		t.Error("no rebuilds ran")
	}
}

// With rebuilds disabled, failures accumulate and a multi-year mission
// eventually exceeds the fault tolerance.
func TestReplayWithoutRebuildsLoses(t *testing.T) {
	o := baseOptions()
	o.Seed = 3
	o.HorizonHours *= 4 // 20 years: comfortably more than t failures
	tr, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats().NodeFailures+tr.Stats().DriveFailures <= 2 {
		t.Skip("trace too quiet for this seed")
	}
	sys := replaySystem(t, 40)
	rep, err := Replay(t.Context(), tr, sys, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnreadableAtEnd == 0 {
		t.Errorf("expected losses without rebuilds: %+v", rep)
	}
}

// Latent faults are invisible to rebuilds but caught by periodic scrubs.
func TestReplayScrubbingRepairsLatentFaults(t *testing.T) {
	o := baseOptions()
	o.LatentFaultsPerDriveHour = 5e-5 // ~2.2 faults/drive over 5 years
	o.Seed = 7
	tr, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats().LatentFaults == 0 {
		t.Fatal("trace has no latent faults; raise the rate")
	}
	sys := replaySystem(t, 40)
	rep, err := Replay(t.Context(), tr, sys, Policy{
		RebuildAfterEachFailure: true,
		ScrubEveryHours:         720, // monthly
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scrubs == 0 {
		t.Error("no scrubs ran")
	}
	if rep.LatentRepaired == 0 {
		t.Error("scrubs repaired nothing despite latent faults in the trace")
	}
	if rep.UnreadableAtEnd != 0 {
		t.Errorf("%d objects unreadable despite rebuilds and scrubs", rep.UnreadableAtEnd)
	}
}

func TestReplayGeometryMismatch(t *testing.T) {
	tr, err := Generate(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := storage.NewSystem(storage.Config{
		Nodes: 8, DrivesPerNode: 4,
		RedundancySetSize: 4, FaultTolerance: 1,
		DriveCapacityBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(t.Context(), tr, sys, Policy{}); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestReplayInvalidTrace(t *testing.T) {
	bad := &Trace{Nodes: 16, DrivesPerNode: 4, HorizonHours: 10,
		Events: []Event{{Hours: 99, Kind: EventNodeFailure, Node: 0}}}
	sys := replaySystem(t, 1)
	if _, err := Replay(t.Context(), bad, sys, Policy{}); err == nil {
		t.Error("invalid trace accepted")
	}
}
