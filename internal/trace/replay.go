package trace

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Policy fixes the maintenance behaviour during a replay.
type Policy struct {
	// RebuildAfterEachFailure runs a full distributed rebuild after every
	// node or drive failure, modelling rebuilds much faster than the
	// failure inter-arrival times (the regime the paper's target
	// configurations live in). When false, failures accumulate
	// un-repaired for the whole mission.
	RebuildAfterEachFailure bool
	// RebuildWindowHours models a finite rebuild duration: outstanding
	// failures are repaired only once the trace has been quiet for this
	// long, so failures clustered within a window compound — the same
	// mechanism that drives the Markov models' MTTDL. Ignored when
	// RebuildAfterEachFailure is set.
	RebuildWindowHours float64
	// ScrubEveryHours runs a scrub pass at this cadence (0 = never).
	ScrubEveryHours float64
	// ReplenishNodes adds a fresh spare node after every node failure,
	// keeping the live population constant — the analytic models'
	// constant-N assumption and the paper's spare-provisioning practice.
	ReplenishNodes bool
	// Obs, when non-nil, receives replay telemetry: applied-event counts
	// by kind under "trace.", plus the storage substrate's rebuild/scrub
	// metrics (the registry is attached to the system for the replay).
	Obs *obs.Registry
}

// Report summarizes a replay.
type Report struct {
	EventsApplied  int
	Rebuilds       int
	ShardsRebuilt  int
	Scrubs         int
	LatentRepaired int
	// ObjectsLost is the number of objects unrecoverable at any point
	// (recorded by rebuilds/scrubs plus a final check).
	ObjectsLost int
	// UnreadableAtEnd counts objects failing a final read-back.
	UnreadableAtEnd int
}

// Replay applies the trace to the storage system in time order under the
// given policy and reports what was lost. The system must match the
// trace's geometry. It runs under one trace.replay span, which on a
// retaining tracer records a rebuild event per rebuild pass, a scrub
// event per scrub pass and, if anything was lost, a final data_loss
// event, each stamped in trace hours.
func Replay(ctx context.Context, t *Trace, sys *storage.System, policy Policy) (Report, error) {
	if err := t.Validate(); err != nil {
		return Report{}, err
	}
	cfg := sys.Config()
	if cfg.Nodes != t.Nodes || cfg.DrivesPerNode != t.DrivesPerNode {
		return Report{}, fmt.Errorf("trace: system geometry %dx%d does not match trace %dx%d",
			cfg.Nodes, cfg.DrivesPerNode, t.Nodes, t.DrivesPerNode)
	}
	_, sp := obs.StartSpan(ctx, "trace.replay")
	defer sp.End()
	recording := sp.Recording()
	var rep Report
	var applied [EventLatentFault + 1]*obs.Counter
	if policy.Obs != nil {
		applied[EventNodeFailure] = policy.Obs.Counter("trace.applied.node")
		applied[EventDriveFailure] = policy.Obs.Counter("trace.applied.drive")
		applied[EventLatentFault] = policy.Obs.Counter("trace.applied.latent")
		sys.SetMetrics(storage.NewMetrics(policy.Obs))
		defer sys.SetMetrics(nil)
	}
	nextScrub := policy.ScrubEveryHours
	scrubDue := func(now float64) bool {
		return policy.ScrubEveryHours > 0 && now >= nextScrub
	}
	// With replenishment, trace node indices are *slots*: each failure
	// retires the slot's current physical node and a fresh one takes
	// over. slotToPhys tracks the mapping.
	slotToPhys := make([]int, t.Nodes)
	for i := range slotToPhys {
		slotToPhys[i] = i
	}
	lastFailure := 0.0
	now := 0.0
	rebuild := func() error {
		st, err := sys.Rebuild()
		if err != nil {
			return err
		}
		rep.Rebuilds++
		rep.ShardsRebuilt += st.ShardsRebuilt
		rep.ObjectsLost += st.ObjectsLost
		if recording {
			sp.Event("rebuild", now, map[string]any{
				"shards_rebuilt": st.ShardsRebuilt,
				"bytes_moved":    st.BytesMoved,
				"objects_lost":   st.ObjectsLost,
			})
		}
		return nil
	}
	for _, e := range t.Events {
		now = e.Hours
		if !policy.RebuildAfterEachFailure && policy.RebuildWindowHours > 0 &&
			e.Hours-lastFailure >= policy.RebuildWindowHours {
			if err := rebuild(); err != nil {
				return rep, err
			}
		}
		for scrubDue(e.Hours) {
			st, err := sys.Scrub()
			if err != nil {
				return rep, err
			}
			rep.Scrubs++
			rep.LatentRepaired += st.FaultsRepaired
			rep.ObjectsLost += st.ObjectsLost
			if recording {
				sp.Event("scrub", nextScrub, map[string]any{
					"shards_checked":  st.ShardsChecked,
					"faults_repaired": st.FaultsRepaired,
					"objects_lost":    st.ObjectsLost,
				})
			}
			nextScrub += policy.ScrubEveryHours
		}
		if c := applied[e.Kind]; c != nil {
			c.Inc()
		}
		phys := slotToPhys[e.Node]
		switch e.Kind {
		case EventNodeFailure:
			if err := sys.FailNode(phys); err != nil {
				return rep, err
			}
			if policy.ReplenishNodes {
				slotToPhys[e.Node] = sys.AddNode()
			}
		case EventDriveFailure:
			if err := sys.FailDrive(phys, e.Drive); err != nil {
				return rep, err
			}
		case EventLatentFault:
			if _, err := sys.InjectLatentFault(phys, e.Drive); err != nil {
				return rep, err
			}
		}
		rep.EventsApplied++
		if e.Kind != EventLatentFault {
			lastFailure = e.Hours
			if policy.RebuildAfterEachFailure {
				if err := rebuild(); err != nil {
					return rep, err
				}
			}
		}
	}
	now = t.HorizonHours
	if !policy.RebuildAfterEachFailure && policy.RebuildWindowHours > 0 &&
		t.HorizonHours-lastFailure >= policy.RebuildWindowHours {
		if err := rebuild(); err != nil {
			return rep, err
		}
	}
	rep.UnreadableAtEnd = len(sys.CheckAll())
	if recording && (rep.ObjectsLost > 0 || rep.UnreadableAtEnd > 0) {
		sp.Event("data_loss", t.HorizonHours, map[string]any{
			"objects_lost":      rep.ObjectsLost,
			"unreadable_at_end": rep.UnreadableAtEnd,
		})
	}
	return rep, nil
}
