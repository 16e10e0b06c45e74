package sim

// Goldens for the simulators' outputs, frozen as hex float bits plus an
// FNV-64a digest of every popped event. They pin per-mission
// trajectories, fleet shards and every estimator to the bit, so a change
// that moves both scheduler engines at once — which the heap-vs-calendar
// harness cannot see — still fails here. Regenerate with
// go test ./internal/sim -run Golden -update, and only when an output is
// meant to change.

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/markov"
	"repro/internal/model"
	"repro/internal/seedstream"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("output differs from %s at byte %d:\n got  %.160s\n want %.160s",
			path, i, got[max(i-60, 0):], want[max(i-60, 0):])
	}
}

// eventDigest folds popped events into an FNV-64a hash, field by field.
type eventDigest struct {
	h   hash.Hash64
	buf [48]byte
}

func newEventDigest() *eventDigest { return &eventDigest{h: fnv.New64a()} }

func (d *eventDigest) add(e event) {
	b := d.buf[:]
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(e.at))
	binary.LittleEndian.PutUint64(b[8:], uint64(e.kind))
	binary.LittleEndian.PutUint64(b[16:], uint64(int64(e.set)))
	binary.LittleEndian.PutUint64(b[24:], uint64(int64(e.node)))
	binary.LittleEndian.PutUint64(b[32:], uint64(int64(e.drive)))
	binary.LittleEndian.PutUint64(b[40:], e.seq)
	d.h.Write(b)
}

// goldenMission runs one per-mission trajectory, feeding every popped
// event to onEvent.
func goldenMission(sc Scenario, seed int64, maxEvents int, onEvent func(event)) (LossResult, error) {
	s := newMissionShard(sc, newCalendarQueue(), nil)
	s.onEvent = onEvent
	return s.runMission(rand.New(rand.NewSource(seed)), maxEvents)
}

// goldenShard runs one fleet shard, feeding every popped event to
// onEvent.
func goldenShard(sc Scenario, sets int, horizon float64, seed int64, onEvent func(event)) (shardTally, error) {
	return runFleetShard(sc, sets, horizon, rand.New(rand.NewSource(seed)), newCalendarQueue(), DefaultFleetMaxEventsPerShard, onEvent)
}

// TestMissionGolden freezes every trajectory of the cross-engine
// harness's randomized scenarios — including the runs that exhaust the
// event budget — as the LossResult bits and the popped-event digest.
func TestMissionGolden(t *testing.T) {
	const (
		scenarios = 200
		seeds     = 3
		maxEvents = 20_000
	)
	var buf bytes.Buffer
	gen := rand.New(rand.NewSource(20260808))
	for i := 0; i < scenarios; i++ {
		sc := randomScenario(gen)
		for s := 0; s < seeds; s++ {
			d := newEventDigest()
			res, err := goldenMission(sc, int64(1000*i+s), maxEvents, d.add)
			if err != nil {
				fmt.Fprintf(&buf, "%d/%d error %q events %016x\n", i, s, err.Error(), d.h.Sum64())
				continue
			}
			fmt.Fprintf(&buf, "%d/%d time %x events %d cause %s digest %016x\n",
				i, s, res.Time, res.Events, res.Cause, d.h.Sum64())
		}
	}
	checkGolden(t, "missions.golden", buf.Bytes())
}

// TestFleetShardGolden freezes every shard of the fleet equivalence
// scenarios: the shard tallies and the popped-event digest.
func TestFleetShardGolden(t *testing.T) {
	const bricks, horizon = 2000, 2000.0
	var buf bytes.Buffer
	for i, sc := range fleetEquivalenceScenarios() {
		sets := (bricks + sc.N - 1) / sc.N
		for seed := int64(1); seed <= 2; seed++ {
			for k := 0; k*fleetShardSets < sets; k++ {
				shardSets := min(fleetShardSets, sets-k*fleetShardSets)
				d := newEventDigest()
				res, err := goldenShard(sc, shardSets, horizon, seedstream.Derive(seed, uint64(k)), d.add)
				if err != nil {
					t.Fatalf("scenario %d seed %d shard %d: %v", i, seed, k, err)
				}
				fmt.Fprintf(&buf, "%d/%d/%d losses %d by-cause %v events %d splits %d merges %d peak %d digest %016x\n",
					i, seed, k, res.losses, res.byCause, res.events, res.splits, res.merges, res.peak, d.h.Sum64())
			}
		}
	}
	checkGolden(t, "fleet_shards.golden", buf.Bytes())
}

// goldenEstimatorScenarios spans the per-mission feature surface: NIR
// with and without CHER, internal RAID 5 and 6, deterministic repair,
// correlated shocks and Weibull lifetimes.
func goldenEstimatorScenarios() []struct {
	name string
	sc   Scenario
} {
	nir := parallelTestScenario()
	noCHER := nir
	noCHER.CHER = 0
	ir5 := Scenario{
		N: 8, R: 4, D: 4, T: 1, ParityDrives: 1,
		LambdaN: 1e-3, LambdaD: 5e-3, MuN: 2, MuD: 5, MuRestripe: 5,
		CHER: 0.02, Repair: RepairExponential,
	}
	ir6 := ir5
	ir6.D, ir6.ParityDrives, ir6.LambdaD, ir6.MuRestripe = 5, 2, 2e-2, 2
	det := nir
	det.Repair = RepairDeterministic
	shock := acceleratedScenario()
	shock.ShockRate, shock.ShockSize = 2e-3, 2
	weibull := nir
	weibull.NodeFailureShape, weibull.DriveFailureShape = 1.5, 0.7
	return []struct {
		name string
		sc   Scenario
	}{
		{"nir", nir}, {"nir_no_cher", noCHER}, {"ir5", ir5}, {"ir6", ir6},
		{"deterministic", det}, {"shock", shock}, {"weibull", weibull},
	}
}

func formatEstimate(e Estimate) string {
	return fmt.Sprintf("trials %d mean %x stderr %x events %x", e.Trials, e.MeanHours, e.StdErr, e.MeanEvts)
}

func formatBiased(e BiasedEstimate) string {
	return fmt.Sprintf("mtta %x stderr %x cycles %d loss-prob %x", e.MTTA, e.StdErr, e.Cycles, e.CycleLossProbability)
}

func formatFleet(e FleetEstimate) string {
	return fmt.Sprintf("bricks %d sets %d horizon %x brick-years %x losses %d by-cause %v events %d splits %d merges %d peak %d rate %x stderr %x mttdl %x",
		e.Bricks, e.NodeSets, e.HorizonHours, e.BrickYears, e.Losses, e.ByCause, e.Events,
		e.Splits, e.Merges, e.PeakLiveRecords, e.LossesPerBrickYear, e.StdErr, e.MTTDLHours)
}

// TestEstimatorGolden freezes every estimator entry point's output bits:
// the serial and parallel (workers 1 and 4) MTTDL estimators, the serial
// and parallel biased estimators, and the fleet estimator.
func TestEstimatorGolden(t *testing.T) {
	var buf bytes.Buffer
	line := func(name, out string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&buf, "%s %s\n", name, out)
	}
	for i, c := range goldenEstimatorScenarios() {
		est, err := EstimateMTTDL(t.Context(), c.sc, rand.New(rand.NewSource(int64(300+i))), 150, 1_000_000, Observer{})
		line("mttdl/serial/"+c.name, formatEstimate(est), err)
		for _, workers := range []int{1, 4} {
			est, err := EstimateMTTDLParallel(t.Context(), c.sc, int64(400+i), 150, 1_000_000, workers, Observer{})
			line(fmt.Sprintf("mttdl/parallel-%d/%s", workers, c.name), formatEstimate(est), err)
		}
	}

	nirSC, nirIn := acceleratedNIR(2)
	chains := []struct {
		name string
		c    *markov.Chain
	}{
		{"repairable", biasedParallelTestChain()},
		{"rare", rareRepairable(1e-5, 1, 1e-4)},
		{"nir_ft2", model.NIRChain(nirIn, nirSC.T)},
	}
	for i, c := range chains {
		th := RepairThreshold(c.c)
		est, err := EstimateMTTABiased(context.Background(), c.c, rand.New(rand.NewSource(int64(500+i))), 5000, 0.5, th)
		line("biased/serial/"+c.name, formatBiased(est), err)
		for _, workers := range []int{1, 4} {
			est, err := EstimateMTTABiasedParallel(t.Context(), c.c, int64(600+i), 5000, 0.5, th, workers)
			line(fmt.Sprintf("biased/parallel-%d/%s", workers, c.name), formatBiased(est), err)
		}
	}

	for i, sc := range fleetEquivalenceScenarios() {
		for _, workers := range []int{1, 4} {
			est, err := EstimateFleet(t.Context(), sc, 3000, 3000, int64(700+i), workers, 0, nil)
			line(fmt.Sprintf("fleet/workers-%d/%d", workers, i), formatFleet(est), err)
		}
	}
	checkGolden(t, "estimators.golden", buf.Bytes())
}
