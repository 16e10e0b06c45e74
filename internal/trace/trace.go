// Package trace generates, serializes and replays component-failure
// traces for a brick fleet. The paper has no public traces (its models
// are parametric), so reproducible experiments need synthetic ones: a
// trace fixes every node failure, drive failure and latent sector fault
// over a mission, can be written to CSV for sharing, and can be replayed
// against the executable storage substrate under different maintenance
// policies (rebuild cadence, scrub interval) to count actual data loss.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/dist"
)

// EventKind labels one trace event.
type EventKind int

const (
	// EventNodeFailure is a whole-node failure (controller, PSU, ...).
	EventNodeFailure EventKind = iota + 1
	// EventDriveFailure is a single-drive failure.
	EventDriveFailure
	// EventLatentFault is a silent sector corruption on a drive.
	EventLatentFault
)

// String returns the CSV tag of the kind.
func (k EventKind) String() string {
	switch k {
	case EventNodeFailure:
		return "node"
	case EventDriveFailure:
		return "drive"
	case EventLatentFault:
		return "latent"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

func kindFromString(s string) (EventKind, error) {
	switch s {
	case "node":
		return EventNodeFailure, nil
	case "drive":
		return EventDriveFailure, nil
	case "latent":
		return EventLatentFault, nil
	default:
		return 0, fmt.Errorf("trace: unknown event kind %q", s)
	}
}

// Event is one component failure at a point in mission time.
type Event struct {
	Hours float64
	Kind  EventKind
	Node  int
	Drive int // meaningful for drive and latent events
}

// Trace is a time-ordered failure schedule for a fixed fleet geometry.
type Trace struct {
	Nodes, DrivesPerNode int
	HorizonHours         float64
	Events               []Event
}

// GenerateOptions parameterizes synthetic trace generation.
type GenerateOptions struct {
	Nodes, DrivesPerNode int
	// NodeMTTFHours and DriveMTTFHours are mean lifetimes; components are
	// not replaced (fail-in-place), so each contributes at most one
	// failure event.
	NodeMTTFHours, DriveMTTFHours float64
	// NodeShape and DriveShape are Weibull shape parameters
	// (0 or 1 = exponential).
	NodeShape, DriveShape float64
	// LatentFaultsPerDriveHour is the rate of silent corruptions on each
	// live drive.
	LatentFaultsPerDriveHour float64
	// HorizonHours is the mission length.
	HorizonHours float64
	// Seed makes generation reproducible.
	Seed int64
	// Renewals treats node and drive indices as *slots* that are
	// instantly replaced with fresh hardware after every failure (the
	// analytic models' constant-population assumption): each slot
	// contributes a renewal sequence of failures instead of at most one.
	// Replay such traces with Policy.ReplenishNodes so slot indices track
	// the replacement nodes.
	Renewals bool
}

func (o GenerateOptions) validate() error {
	switch {
	case o.Nodes < 1 || o.DrivesPerNode < 1:
		return fmt.Errorf("trace: invalid geometry %dx%d", o.Nodes, o.DrivesPerNode)
	}
	if err := (dist.Lifetime{Mean: o.NodeMTTFHours, Shape: o.NodeShape}).Validate(); err != nil {
		return fmt.Errorf("trace: node lifetime: %w", err)
	}
	if err := (dist.Lifetime{Mean: o.DriveMTTFHours, Shape: o.DriveShape}).Validate(); err != nil {
		return fmt.Errorf("trace: drive lifetime: %w", err)
	}
	switch {
	case !(o.LatentFaultsPerDriveHour >= 0):
		return fmt.Errorf("trace: latent rate %v must be non-negative", o.LatentFaultsPerDriveHour)
	case !(o.HorizonHours > 0):
		return fmt.Errorf("trace: horizon %v must be positive", o.HorizonHours)
	}
	return nil
}

// lifetime draws a component lifetime with the given mean and Weibull
// shape (0 or 1 = exponential).
func lifetime(rng *rand.Rand, mean, shape float64) float64 {
	return dist.Lifetime{Mean: mean, Shape: shape}.Sample(rng)
}

// Generate draws a reproducible synthetic trace. Without Renewals: one
// lifetime per node and drive (fail-in-place — no replacement) and Poisson
// latent faults on each drive while both it and its node live. With
// Renewals: every slot fails repeatedly, fresh hardware after each event.
func Generate(o GenerateOptions) (*Trace, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	t := &Trace{Nodes: o.Nodes, DrivesPerNode: o.DrivesPerNode, HorizonHours: o.HorizonHours}
	for n := 0; n < o.Nodes; n++ {
		nodeDeath := lifetime(rng, o.NodeMTTFHours, o.NodeShape)
		if o.Renewals {
			for at := nodeDeath; at < o.HorizonHours; at += lifetime(rng, o.NodeMTTFHours, o.NodeShape) {
				t.Events = append(t.Events, Event{Hours: at, Kind: EventNodeFailure, Node: n})
			}
			nodeDeath = math.Inf(1) // drives are never orphaned by slot death
		} else if nodeDeath < o.HorizonHours {
			t.Events = append(t.Events, Event{Hours: nodeDeath, Kind: EventNodeFailure, Node: n})
		}
		for d := 0; d < o.DrivesPerNode; d++ {
			driveDeath := lifetime(rng, o.DriveMTTFHours, o.DriveShape)
			if o.Renewals {
				for at := driveDeath; at < o.HorizonHours; at += lifetime(rng, o.DriveMTTFHours, o.DriveShape) {
					t.Events = append(t.Events, Event{Hours: at, Kind: EventDriveFailure, Node: n, Drive: d})
				}
				driveDeath = math.Inf(1)
			} else if driveDeath < o.HorizonHours && driveDeath < nodeDeath {
				t.Events = append(t.Events, Event{Hours: driveDeath, Kind: EventDriveFailure, Node: n, Drive: d})
			}
			if o.LatentFaultsPerDriveHour > 0 {
				end := math.Min(math.Min(driveDeath, nodeDeath), o.HorizonHours)
				for at := rng.ExpFloat64() / o.LatentFaultsPerDriveHour; at < end; at += rng.ExpFloat64() / o.LatentFaultsPerDriveHour {
					t.Events = append(t.Events, Event{Hours: at, Kind: EventLatentFault, Node: n, Drive: d})
				}
			}
		}
	}
	t.Sort()
	return t, nil
}

// Sort orders events by time (stable on ties).
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool { return t.Events[i].Hours < t.Events[j].Hours })
}

// Validate reports structural problems: out-of-range components, events
// beyond the horizon, or unsorted order.
func (t *Trace) Validate() error {
	if t.Nodes < 1 || t.DrivesPerNode < 1 {
		return fmt.Errorf("trace: invalid geometry %dx%d", t.Nodes, t.DrivesPerNode)
	}
	prev := 0.0
	for i, e := range t.Events {
		switch {
		case e.Hours < 0 || e.Hours > t.HorizonHours:
			return fmt.Errorf("trace: event %d at %v h outside [0, %v]", i, e.Hours, t.HorizonHours)
		case e.Hours < prev:
			return fmt.Errorf("trace: event %d out of order", i)
		case e.Node < 0 || e.Node >= t.Nodes:
			return fmt.Errorf("trace: event %d node %d out of range", i, e.Node)
		case e.Kind != EventNodeFailure && (e.Drive < 0 || e.Drive >= t.DrivesPerNode):
			return fmt.Errorf("trace: event %d drive %d out of range", i, e.Drive)
		case e.Kind != EventNodeFailure && e.Kind != EventDriveFailure && e.Kind != EventLatentFault:
			return fmt.Errorf("trace: event %d has unknown kind %d", i, int(e.Kind))
		}
		prev = e.Hours
	}
	return nil
}

// WriteCSV serializes the trace: a header row with the geometry, then one
// row per event.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	head := []string{"#geometry", strconv.Itoa(t.Nodes), strconv.Itoa(t.DrivesPerNode),
		strconv.FormatFloat(t.HorizonHours, 'g', -1, 64)}
	if err := cw.Write(head); err != nil {
		return err
	}
	for _, e := range t.Events {
		row := []string{
			strconv.FormatFloat(e.Hours, 'g', -1, 64),
			e.Kind.String(),
			strconv.Itoa(e.Node),
			strconv.Itoa(e.Drive),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV and validates it.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	if len(rows) == 0 || len(rows[0]) != 4 || rows[0][0] != "#geometry" {
		return nil, fmt.Errorf("trace: missing geometry header")
	}
	t := &Trace{}
	if t.Nodes, err = strconv.Atoi(rows[0][1]); err != nil {
		return nil, fmt.Errorf("trace: bad node count: %w", err)
	}
	if t.DrivesPerNode, err = strconv.Atoi(rows[0][2]); err != nil {
		return nil, fmt.Errorf("trace: bad drive count: %w", err)
	}
	if t.HorizonHours, err = strconv.ParseFloat(rows[0][3], 64); err != nil {
		return nil, fmt.Errorf("trace: bad horizon: %w", err)
	}
	for i, row := range rows[1:] {
		if len(row) != 4 {
			return nil, fmt.Errorf("trace: row %d has %d fields", i+1, len(row))
		}
		var e Event
		if e.Hours, err = strconv.ParseFloat(row[0], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+1, err)
		}
		if e.Kind, err = kindFromString(row[1]); err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", i+1, err)
		}
		if e.Node, err = strconv.Atoi(row[2]); err != nil {
			return nil, fmt.Errorf("trace: row %d node: %w", i+1, err)
		}
		if e.Drive, err = strconv.Atoi(row[3]); err != nil {
			return nil, fmt.Errorf("trace: row %d drive: %w", i+1, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Stats summarizes a trace's event mix.
type Stats struct {
	NodeFailures, DriveFailures, LatentFaults int
}

// Stats counts the trace's events by kind.
func (t *Trace) Stats() Stats {
	var s Stats
	for _, e := range t.Events {
		switch e.Kind {
		case EventNodeFailure:
			s.NodeFailures++
		case EventDriveFailure:
			s.DriveFailures++
		case EventLatentFault:
			s.LatentFaults++
		}
	}
	return s
}
