package rebuild

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/params"
)

func TestDriveThroughputIOPSLimited(t *testing.T) {
	p := params.Baseline()
	// 150 IOPS × 128 KiB = 19.66 MB/s < 40 MB/s, then ×10%.
	want := 150 * 128 * 1024 * 0.10
	if got := DriveThroughput(p, p.RebuildCommandBytes); math.Abs(got-want) > 1e-9 {
		t.Errorf("DriveThroughput(128 KiB) = %v, want %v", got, want)
	}
}

func TestDriveThroughputTransferLimited(t *testing.T) {
	p := params.Baseline()
	// 150 IOPS × 1 MiB = 157 MB/s > 40 MB/s cap, then ×10%.
	want := 40e6 * 0.10
	if got := DriveThroughput(p, p.RestripeCommandBytes); math.Abs(got-want) > 1e-9 {
		t.Errorf("DriveThroughput(1 MiB) = %v, want %v", got, want)
	}
}

func TestDriveThroughputMonotoneInCommandSize(t *testing.T) {
	p := params.Baseline()
	prev := 0.0
	for _, b := range []float64{4 * params.KiB, 16 * params.KiB, 64 * params.KiB, 256 * params.KiB, params.MiB} {
		got := DriveThroughput(p, b)
		if got < prev {
			t.Errorf("throughput decreased at command size %v: %v < %v", b, got, prev)
		}
		prev = got
	}
}

func TestNetworkThroughput(t *testing.T) {
	p := params.Baseline()
	// 2 links × 800 MB/s × 10%.
	if got, want := NetworkThroughput(p), 160e6; math.Abs(got-want) > 1e-6 {
		t.Errorf("NetworkThroughput = %v, want %v", got, want)
	}
}

func TestNodeRebuildBaselineDiskLimited(t *testing.T) {
	p := params.Baseline()
	hours, b := NodeRebuildTimeHours(p, 2)
	if b != BottleneckDisk {
		t.Errorf("baseline node rebuild bottleneck = %v, want disk", b)
	}
	// Per survivor: (R-t+1)/(N-1)·2.7 TB = 7/63·2.7e12 = 300 GB at
	// 12 drives × 150 IOPS × 128 KiB × 10% = 23.6 MB/s → ≈ 3.53 h.
	want := 7.0 / 63.0 * 2.7e12 / (12 * 150 * 128 * 1024 * 0.10) / 3600
	if math.Abs(hours-want)/want > 1e-12 {
		t.Errorf("node rebuild time = %v h, want %v h", hours, want)
	}
}

func TestNodeRebuildSlowLinkNetworkLimited(t *testing.T) {
	p := params.Baseline()
	p.LinkSpeedGbps = 1
	_, b := NodeRebuildTimeHours(p, 2)
	if b != BottleneckNetwork {
		t.Errorf("1 Gb/s node rebuild bottleneck = %v, want network", b)
	}
}

func TestRebuildTimeDecreasesWithFaultToleranceUsed(t *testing.T) {
	// Higher t means fewer source elements are needed per rebuilt element,
	// so rebuild time must not increase with t.
	p := params.Baseline()
	prev := math.Inf(1)
	for ft := 1; ft <= 3; ft++ {
		hours, _ := NodeRebuildTimeHours(p, ft)
		if hours > prev {
			t.Errorf("node rebuild time increased at t=%d: %v > %v", ft, hours, prev)
		}
		prev = hours
	}
}

func TestDriveRebuildScalesWithNodeRebuild(t *testing.T) {
	// One drive holds 1/d of a node's data, and the same flow model
	// applies, so the drive rebuild should be exactly d times faster.
	p := params.Baseline()
	nodeH, _ := NodeRebuildTimeHours(p, 2)
	driveH, _ := DriveRebuildTimeHours(p, 2)
	if got, want := nodeH/driveH, float64(p.DrivesPerNode); math.Abs(got-want) > 1e-9 {
		t.Errorf("node/drive rebuild time ratio = %v, want %v", got, want)
	}
}

func TestRestripeTime(t *testing.T) {
	p := params.Baseline()
	// Read + write of each survivor's 225 GB at 4 MB/s per drive:
	// 2 × 225e9 / 4e6 = 112500 s = 31.25 h.
	want := 31.25
	if got := RestripeTimeHours(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("RestripeTimeHours = %v, want %v", got, want)
	}
}

func TestRestripeSingleDriveInfinite(t *testing.T) {
	p := params.Baseline()
	p.DrivesPerNode = 1
	if got := RestripeTimeHours(p); !math.IsInf(got, 1) {
		t.Errorf("RestripeTimeHours with 1 drive = %v, want +Inf", got)
	}
}

func TestComputeRatesConsistent(t *testing.T) {
	p := params.Baseline()
	rates := Compute(p, 2)
	nodeH, _ := NodeRebuildTimeHours(p, 2)
	if math.Abs(rates.NodeRebuild*nodeH-1) > 1e-12 {
		t.Errorf("NodeRebuild rate inconsistent with time")
	}
	driveH, _ := DriveRebuildTimeHours(p, 2)
	if math.Abs(rates.DriveRebuild*driveH-1) > 1e-12 {
		t.Errorf("DriveRebuild rate inconsistent with time")
	}
	if math.Abs(rates.Restripe*RestripeTimeHours(p)-1) > 1e-12 {
		t.Errorf("Restripe rate inconsistent with time")
	}
	if rates.NodeBottleneck != BottleneckDisk {
		t.Errorf("baseline NodeBottleneck = %v, want disk", rates.NodeBottleneck)
	}
}

func TestComputeFaultToleranceRangePanics(t *testing.T) {
	p := params.Baseline()
	for _, ft := range []int{0, 8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Compute(t=%d) did not panic", ft)
				}
			}()
			Compute(p, ft)
		}()
	}
}

func TestCrossoverNearThreeGbps(t *testing.T) {
	// The paper (Section 7, Figure 17): the rebuild is link-constrained
	// "up to around 3 Gb/s" at baseline. Our calibration should land the
	// crossover between 1 and 5 Gb/s so Figure 17's shape reproduces
	// (1 Gb/s worse; 5 and 10 Gb/s identical).
	p := params.Baseline()
	cross := CrossoverLinkSpeedGbps(p, 2)
	if cross <= 1 || cross >= 5 {
		t.Errorf("crossover = %v Gb/s, want within (1, 5)", cross)
	}
}

func TestCrossoverMatchesBottleneckSwitch(t *testing.T) {
	p := params.Baseline()
	cross := CrossoverLinkSpeedGbps(p, 2)
	p.LinkSpeedGbps = cross * 0.9
	if _, b := NodeRebuildTimeHours(p, 2); b != BottleneckNetwork {
		t.Errorf("below crossover: bottleneck = %v, want network", b)
	}
	p.LinkSpeedGbps = cross * 1.1
	if _, b := NodeRebuildTimeHours(p, 2); b != BottleneckDisk {
		t.Errorf("above crossover: bottleneck = %v, want disk", b)
	}
}

func TestRebuildRateFlatAboveCrossover(t *testing.T) {
	// Figure 17: no reliability difference between 5 and 10 Gb/s because
	// both are disk-limited.
	p5 := params.Baseline()
	p5.LinkSpeedGbps = 5
	p10 := params.Baseline()
	h5, _ := NodeRebuildTimeHours(p5, 2)
	h10, _ := NodeRebuildTimeHours(p10, 2)
	if h5 != h10 {
		t.Errorf("node rebuild differs between 5 Gb/s (%v) and 10 Gb/s (%v)", h5, h10)
	}
}

func TestBottleneckString(t *testing.T) {
	if BottleneckDisk.String() != "disk" || BottleneckNetwork.String() != "network" {
		t.Error("Bottleneck.String() wrong")
	}
	if !strings.Contains(Bottleneck(9).String(), "9") {
		t.Error("unknown bottleneck String() should include the value")
	}
}

func TestLargerBlocksNeverSlowRebuild(t *testing.T) {
	p := params.Baseline()
	prev := math.Inf(1)
	for _, b := range []float64{4 * params.KiB, 8 * params.KiB, 32 * params.KiB, 128 * params.KiB, 512 * params.KiB, params.MiB} {
		p.RebuildCommandBytes = b
		h, _ := NodeRebuildTimeHours(p, 2)
		if h > prev {
			t.Errorf("node rebuild slower with larger block %v: %v > %v", b, h, prev)
		}
		prev = h
	}
}

// distributedRebuildTime spells out DriveThroughput and NetworkThroughput
// inline; the times must equal the composition of the public helpers
// bit for bit, on both sides of the disk/network crossover.
func TestDistributedRebuildMatchesThroughputHelpers(t *testing.T) {
	ref := func(p params.Parameters, dataBytes float64, ft int) (float64, Bottleneck) {
		survivors := float64(p.NodeSetSize) - 1
		rebuilt := dataBytes / survivors
		received := (float64(p.RedundancySetSize) - float64(ft)) / survivors * dataBytes
		diskSec := (received + rebuilt) / (float64(p.DrivesPerNode) * DriveThroughput(p, p.RebuildCommandBytes))
		netSec := (received + received) / NetworkThroughput(p)
		if diskSec >= netSec {
			return diskSec / 3600, BottleneckDisk
		}
		return netSec / 3600, BottleneckNetwork
	}
	for _, link := range []float64{0.7, 1.3, 2.9, 10} {
		for _, cmd := range []float64{4 * params.KiB, 96 * params.KiB, 1 * params.MiB} {
			for ft := 1; ft <= 3; ft++ {
				p := params.Baseline()
				p.LinkSpeedGbps = link
				p.RebuildCommandBytes = cmd
				p.RebuildBandwidthFraction = 0.37
				gotT, gotB := NodeRebuildTimeHours(p, ft)
				wantT, wantB := ref(p, p.NodeDataBytes(), ft)
				if gotT != wantT || gotB != wantB {
					t.Errorf("link %v cmd %v ft %d: node rebuild (%v, %v), helpers give (%v, %v)",
						link, cmd, ft, gotT, gotB, wantT, wantB)
				}
				gotT, gotB = DriveRebuildTimeHours(p, ft)
				wantT, wantB = ref(p, p.DriveDataBytes(), ft)
				if gotT != wantT || gotB != wantB {
					t.Errorf("link %v cmd %v ft %d: drive rebuild (%v, %v), helpers give (%v, %v)",
						link, cmd, ft, gotT, gotB, wantT, wantB)
				}
			}
		}
	}
}

// meteredCtx returns a context whose span folds into reg — the shape a
// request or a CLI run gives the solver layers — and the span's end.
func meteredCtx(reg *obs.Registry) (context.Context, func()) {
	tr := obs.NewTracer()
	tr.SetFold(obs.NewSpanFolder(reg))
	ctx, root := tr.Start(context.Background(), "test")
	return ctx, root.End
}

// A Tally flushed once records what one flush per rate set records over
// the same sets: the same counter totals and the last set's gauges, and
// rates bit-identical to Compute's.
func TestTallyMatchesPerCallCompute(t *testing.T) {
	t.Parallel()
	var ps []params.Parameters
	for _, link := range []float64{1, 2, 10, 40} {
		for _, block := range []float64{16 * params.KiB, 1 * params.MiB} {
			p := params.Baseline()
			p.LinkSpeedGbps = link
			p.RebuildCommandBytes = block
			ps = append(ps, p)
		}
	}
	names := []string{"rebuild.computes", "rebuild.node_bottleneck.disk", "rebuild.node_bottleneck.network",
		"rebuild.drive_bottleneck.disk", "rebuild.drive_bottleneck.network"}
	gauges := []string{"rebuild.last_node_rebuild_per_hour", "rebuild.last_drive_rebuild_per_hour", "rebuild.last_restripe_per_hour"}

	perCall := obs.NewRegistry()
	perCallCtx, end := meteredCtx(perCall)
	defer end()
	want := make([]Rates, len(ps))
	for i, p := range ps {
		want[i] = Compute(p, 2)
		var one Tally
		if got := one.Compute(&p, 2); got != want[i] {
			t.Errorf("set %d: Tally.Compute %+v, Compute %+v", i, got, want[i])
		}
		one.Flush(perCallCtx)
	}
	tallied := obs.NewRegistry()
	talliedCtx, end := meteredCtx(tallied)
	defer end()
	var tl Tally
	for i := range ps {
		if got := tl.Compute(&ps[i], 2); got != want[i] {
			t.Errorf("set %d: Tally.Compute %+v, Compute %+v", i, got, want[i])
		}
	}
	if got := tallied.Counter("rebuild.computes").Value(); got != 0 {
		t.Errorf("rebuild.computes = %d before Flush, want 0", got)
	}
	tl.Flush(talliedCtx)
	tl.Flush(talliedCtx) // an empty tally records nothing
	network := 0
	for _, name := range names {
		a, b := perCall.Counter(name).Value(), tallied.Counter(name).Value()
		if a != b {
			t.Errorf("%s: per-call %d, tally %d", name, a, b)
		}
		if name == "rebuild.node_bottleneck.network" {
			network = int(b)
		}
	}
	if network == 0 || network == len(ps) {
		t.Fatalf("%d of %d node rebuilds network-limited; the sets must mix both paths", network, len(ps))
	}
	for _, name := range gauges {
		if a, b := perCall.Gauge(name).Value(), tallied.Gauge(name).Value(); a != b {
			t.Errorf("%s: per-call %v, tally %v", name, a, b)
		}
	}
}

// ratesBits is r with its rates as bits, so +0 and −0 differ.
func ratesBits(r Rates) [5]uint64 {
	return [5]uint64{math.Float64bits(r.NodeRebuild), math.Float64bits(r.DriveRebuild), math.Float64bits(r.Restripe),
		uint64(r.NodeBottleneck), uint64(r.DriveBottleneck)}
}

// A Tally reuses its latest Rates only for bit-equal inputs: after a
// change of one ulp (or one) in any input Compute reads, or a flip from
// +0 to −0, its rates are bit for bit a fresh Compute's; after a change
// in an input it does not read (a lifetime, the error rate) they are
// too. Every call is tallied, reused or not.
func TestTallyReusesBitEqualRates(t *testing.T) {
	t.Parallel()
	floats := map[string]func(*params.Parameters) *float64{
		"DriveCapacityBytes":       func(p *params.Parameters) *float64 { return &p.DriveCapacityBytes },
		"CapacityUtilization":      func(p *params.Parameters) *float64 { return &p.CapacityUtilization },
		"DriveMaxIOPS":             func(p *params.Parameters) *float64 { return &p.DriveMaxIOPS },
		"DriveTransferBytesPerSec": func(p *params.Parameters) *float64 { return &p.DriveTransferBytesPerSec },
		"RebuildCommandBytes":      func(p *params.Parameters) *float64 { return &p.RebuildCommandBytes },
		"RestripeCommandBytes":     func(p *params.Parameters) *float64 { return &p.RestripeCommandBytes },
		"LinkSpeedGbps":            func(p *params.Parameters) *float64 { return &p.LinkSpeedGbps },
		"EffectiveLinks":           func(p *params.Parameters) *float64 { return &p.EffectiveLinks },
		"RebuildBandwidthFraction": func(p *params.Parameters) *float64 { return &p.RebuildBandwidthFraction },
	}
	ints := map[string]func(*params.Parameters) *int{
		"NodeSetSize":       func(p *params.Parameters) *int { return &p.NodeSetSize },
		"RedundancySetSize": func(p *params.Parameters) *int { return &p.RedundancySetSize },
		"DrivesPerNode":     func(p *params.Parameters) *int { return &p.DrivesPerNode },
	}
	unread := map[string]func(*params.Parameters) *float64{
		"NodeMTTFHours":  func(p *params.Parameters) *float64 { return &p.NodeMTTFHours },
		"DriveMTTFHours": func(p *params.Parameters) *float64 { return &p.DriveMTTFHours },
		"HardErrorRate":  func(p *params.Parameters) *float64 { return &p.HardErrorRate },
	}
	var (
		tl    Tally
		calls int64
	)
	check := func(what string, p params.Parameters, ft int) {
		t.Helper()
		calls++
		if got, want := tl.Compute(&p, ft), Compute(p, ft); ratesBits(got) != ratesBits(want) {
			t.Errorf("%s: Tally.Compute %+v, fresh Compute %+v", what, got, want)
		}
	}
	base := params.Baseline()
	for name, field := range floats {
		p := base
		check(name+" base", p, 2)
		*field(&p) = math.Nextafter(*field(&p), math.Inf(1))
		check(name+" +1 ulp", p, 2)
		*field(&p) = 0
		check(name+" +0", p, 2)
		*field(&p) = math.Copysign(0, -1)
		check(name+" −0", p, 2)
		check(name+" −0 again", p, 2)
	}
	for name, field := range ints {
		p := base
		check(name+" base", p, 2)
		*field(&p)++
		check(name+" +1", p, 2)
	}
	check("t 2", base, 2)
	check("t 3", base, 3)
	for name, field := range unread {
		p := base
		check(name+" base", p, 2)
		*field(&p) *= 1.5
		check(name+" changed", p, 2)
	}
	if tl.computes != calls || tl.nodeDisk+tl.nodeNetwork != calls || tl.driveDisk+tl.driveNetwork != calls {
		t.Errorf("tally counts %d computes, %d+%d node and %d+%d drive bottlenecks over %d calls",
			tl.computes, tl.nodeDisk, tl.nodeNetwork, tl.driveDisk, tl.driveNetwork, calls)
	}
}
