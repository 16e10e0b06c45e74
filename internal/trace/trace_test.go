package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/params"
)

func baseOptions() GenerateOptions {
	return GenerateOptions{
		Nodes: 16, DrivesPerNode: 4,
		NodeMTTFHours:  400_000,
		DriveMTTFHours: 300_000,
		HorizonHours:   5 * params.HoursPerYear,
		Seed:           1,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("non-deterministic lengths %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	o := baseOptions()
	o.Seed = 2
	c, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) == len(a.Events) {
		same := true
		for i := range c.Events {
			if c.Events[i] != a.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateValidatesAndSorted(t *testing.T) {
	tr, err := Generate(baseOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Hours < tr.Events[i-1].Hours {
			t.Fatal("events not sorted")
		}
	}
}

func TestGenerateExpectedCounts(t *testing.T) {
	// Aggregate over many seeds: event counts should match the analytic
	// expectations within a few percent.
	o := baseOptions()
	o.LatentFaultsPerDriveHour = 1e-5
	var nodes, drives, latent float64
	const seeds = 200
	for s := int64(0); s < seeds; s++ {
		o.Seed = s
		tr, err := Generate(o)
		if err != nil {
			t.Fatal(err)
		}
		st := tr.Stats()
		nodes += float64(st.NodeFailures)
		drives += float64(st.DriveFailures)
		latent += float64(st.LatentFaults)
	}
	nodes /= seeds
	drives /= seeds
	latent /= seeds
	lambdaN := 1 / o.NodeMTTFHours
	lambdaD := 1 / o.DriveMTTFHours
	horizon := o.HorizonHours
	wantNodes := float64(o.Nodes) * (1 - math.Exp(-lambdaN*horizon))
	if math.Abs(nodes-wantNodes)/wantNodes > 0.10 {
		t.Errorf("mean node failures %v, want ≈%v", nodes, wantNodes)
	}
	wantDrives := float64(o.Nodes*o.DrivesPerNode) * lambdaD / (lambdaN + lambdaD) *
		(1 - math.Exp(-(lambdaN+lambdaD)*horizon))
	if math.Abs(drives-wantDrives)/wantDrives > 0.10 {
		t.Errorf("mean drive failures %v, want ≈%v", drives, wantDrives)
	}
	if latent <= 0 {
		t.Error("no latent faults generated")
	}
}

func TestGenerateOptionValidation(t *testing.T) {
	mutations := []func(*GenerateOptions){
		func(o *GenerateOptions) { o.Nodes = 0 },
		func(o *GenerateOptions) { o.DrivesPerNode = 0 },
		func(o *GenerateOptions) { o.NodeMTTFHours = 0 },
		func(o *GenerateOptions) { o.DriveMTTFHours = -1 },
		func(o *GenerateOptions) { o.NodeShape = -2 },
		func(o *GenerateOptions) { o.LatentFaultsPerDriveHour = -1 },
		func(o *GenerateOptions) { o.HorizonHours = 0 },
		// NaN passes x <= 0 and x < 0; a shape below 0.2 is refused as in sim.
		func(o *GenerateOptions) { o.NodeMTTFHours = math.NaN() },
		func(o *GenerateOptions) { o.DriveMTTFHours = math.NaN() },
		func(o *GenerateOptions) { o.NodeShape = math.NaN() },
		func(o *GenerateOptions) { o.DriveShape = math.NaN() },
		func(o *GenerateOptions) { o.LatentFaultsPerDriveHour = math.NaN() },
		func(o *GenerateOptions) { o.HorizonHours = math.NaN() },
		func(o *GenerateOptions) { o.DriveShape = 0.1 },
	}
	for i, mutate := range mutations {
		o := baseOptions()
		mutate(&o)
		if _, err := Generate(o); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	o := baseOptions()
	o.LatentFaultsPerDriveHour = 2e-5
	orig, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes != orig.Nodes || back.DrivesPerNode != orig.DrivesPerNode ||
		back.HorizonHours != orig.HorizonHours {
		t.Errorf("geometry mismatch: %+v", back)
	}
	if len(back.Events) != len(orig.Events) {
		t.Fatalf("events %d vs %d", len(back.Events), len(orig.Events))
	}
	for i := range back.Events {
		if back.Events[i] != orig.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, back.Events[i], orig.Events[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no header":    "1,node,0,0\n",
		"bad kind":     "#geometry,4,2,100\n1,alien,0,0\n",
		"bad time":     "#geometry,4,2,100\nxx,node,0,0\n",
		"out of range": "#geometry,4,2,100\n1,node,9,0\n",
		"beyond end":   "#geometry,4,2,100\n500,node,0,0\n",
		"unsorted":     "#geometry,4,2,100\n5,node,0,0\n1,node,1,0\n",
	}
	for name, doc := range cases {
		if _, err := ReadCSV(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEventKindString(t *testing.T) {
	if EventNodeFailure.String() != "node" ||
		EventDriveFailure.String() != "drive" ||
		EventLatentFault.String() != "latent" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Error("unknown kind String should include value")
	}
}

func TestStats(t *testing.T) {
	tr := &Trace{Nodes: 2, DrivesPerNode: 2, HorizonHours: 10, Events: []Event{
		{Hours: 1, Kind: EventNodeFailure, Node: 0},
		{Hours: 2, Kind: EventDriveFailure, Node: 1, Drive: 0},
		{Hours: 3, Kind: EventLatentFault, Node: 1, Drive: 1},
		{Hours: 4, Kind: EventLatentFault, Node: 1, Drive: 1},
	}}
	s := tr.Stats()
	if s.NodeFailures != 1 || s.DriveFailures != 1 || s.LatentFaults != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestWeibullGenerationRuns(t *testing.T) {
	o := baseOptions()
	o.NodeShape = 3
	o.DriveShape = 2
	tr, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// With wear-out shapes and a horizon well below MTTF, failures should
	// be rarer than exponential (low early hazard).
	oExp := baseOptions()
	var wExp, wWei int
	for s := int64(0); s < 100; s++ {
		o.Seed, oExp.Seed = s, s
		a, err := Generate(o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(oExp)
		if err != nil {
			t.Fatal(err)
		}
		wWei += len(a.Events)
		wExp += len(b.Events)
	}
	if wWei >= wExp {
		t.Errorf("wear-out trace has %d events vs exponential %d; expected fewer early failures", wWei, wExp)
	}
}
