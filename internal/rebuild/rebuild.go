// Package rebuild implements the paper's rebuild-time model (Section 5.1
// and the baseline clarifications of Section 6).
//
// The model is data-flow accounting: a rebuild moves a known amount of data
// through two constrained paths — the inter-node network and the drives
// inside each node — and the effective rebuild time is the larger of the
// two path times ("depending on where the bottleneck lies"). Only a
// configurable fraction of each path's bandwidth is allocated to rebuild
// work; the remainder serves foreground I/O.
//
// For a node set of size N, a redundancy set of size R and inter-node fault
// tolerance t, when one node's worth of data is rebuilt onto the surviving
// N-1 nodes, each survivor (Section 5.1):
//
//	rebuilds 1/(N-1) of the data,
//	receives (R-t)/(N-1) from its peers,
//	sources (R-t)/(N-1) for its peers,
//
// so per survivor the network carries 2(R-t)/(N-1) and the drives carry
// (R-t+1)/(N-1) node's-worth of data. Drive rebuilds in the
// no-internal-RAID configurations follow the same flow with one drive's
// worth of data (spare capacity, like data, is evenly distributed).
package rebuild

import (
	"fmt"
	"math"

	"repro/internal/params"
)

// Rates bundles the repair rates consumed by the Markov models, all in
// events per hour.
type Rates struct {
	// NodeRebuild is μ_N: the rate at which one failed node's data is
	// collectively rebuilt by the survivors.
	NodeRebuild float64
	// DriveRebuild is μ_d for the no-internal-RAID configurations: the
	// rate at which one failed drive's data is rebuilt.
	DriveRebuild float64
	// Restripe is μ_d for the internal-RAID configurations: the rate at
	// which an array re-stripes itself after an internal drive failure,
	// removing the failed drive and restoring redundancy.
	Restripe float64
	// NodeBottleneck and DriveBottleneck record which path limited the
	// corresponding rebuild, for diagnostics and the Figure 17 analysis.
	NodeBottleneck  Bottleneck
	DriveBottleneck Bottleneck
}

// Bottleneck identifies the limiting path of a rebuild.
type Bottleneck int

const (
	// BottleneckDisk means the drives inside each node limit the rebuild.
	BottleneckDisk Bottleneck = iota + 1
	// BottleneckNetwork means the inter-node links limit the rebuild.
	BottleneckNetwork
)

// String returns "disk" or "network".
func (b Bottleneck) String() string {
	switch b {
	case BottleneckDisk:
		return "disk"
	case BottleneckNetwork:
		return "network"
	default:
		return fmt.Sprintf("Bottleneck(%d)", int(b))
	}
}

// distributedRebuildTime returns the time in hours to rebuild dataBytes of
// lost data distributed across the N-1 surviving nodes, with fault
// tolerance t of the inter-node redundancy, plus the limiting path.
// It reads p through a pointer and spells out the per-drive and network
// rebuild throughputs with the same association, so the per-candidate
// rate computation copies no Parameters and its floats are unchanged.
func distributedRebuildTime(p *params.Parameters, dataBytes float64, t int) (float64, Bottleneck) {
	n := float64(p.NodeSetSize)
	r := float64(p.RedundancySetSize)
	survivors := n - 1

	// Per-survivor data volumes (Section 5.1), in bytes.
	rebuilt := dataBytes / survivors
	received := (r - float64(t)) / survivors * dataBytes
	sourced := received // symmetric: total received == total sourced

	netBytes := received + sourced // in and out of the node
	diskBytes := sourced + rebuilt // reads for peers + local writes
	// All drives participate, each at its rebuild throughput: the lesser
	// of its IOPS at the rebuild command size and its transfer rate, at
	// the rebuild bandwidth fraction (bytes/sec).
	diskRate := float64(p.DrivesPerNode) *
		(math.Min(p.DriveMaxIOPS*p.RebuildCommandBytes, p.DriveTransferBytesPerSec) * p.RebuildBandwidthFraction)
	netRate := p.LinkSpeedGbps * params.LinkBytesPerSecPerGbps * p.EffectiveLinks * p.RebuildBandwidthFraction

	diskSec := diskBytes / diskRate
	netSec := netBytes / netRate
	if diskSec >= netSec {
		return diskSec / 3600, BottleneckDisk
	}
	return netSec / 3600, BottleneckNetwork
}

// NodeRebuildTimeHours returns the time to rebuild one node's worth of data
// after a node (or internal array) failure, and the limiting path.
func NodeRebuildTimeHours(p params.Parameters, t int) (float64, Bottleneck) {
	return distributedRebuildTime(&p, p.NodeDataBytes(), t)
}

// restripeTimeHours returns the time for an internal RAID array to
// re-stripe after a drive failure: the surviving d-1 drives' data is read
// once and written once at the restripe command size, entirely inside the
// node (no network involvement). It reads p through a pointer.
func restripeTimeHours(p *params.Parameters) float64 {
	survivors := float64(p.DrivesPerNode - 1)
	if survivors <= 0 {
		return math.Inf(1)
	}
	dataBytes := survivors * p.DriveDataBytes()
	rate := survivors * (math.Min(p.DriveMaxIOPS*p.RestripeCommandBytes, p.DriveTransferBytesPerSec) * p.RebuildBandwidthFraction)
	return 2 * dataBytes / rate / 3600
}

// Compute derives all repair rates for inter-node fault tolerance t. It
// has no context and so records no telemetry; callers that want the
// rebuild.* metrics compute through a Tally and Flush it under their
// span. It panics if t < 1 or t >= R (the redundancy set must contain
// data).
func Compute(p params.Parameters, t int) Rates {
	var tl Tally
	return tl.Compute(&p, t)
}

// Tally computes rates for a caller that computes many of them and
// holds their telemetry until Flush, so a block of computations costs
// one registry update instead of one per rate set. The zero value is
// ready to use.
type Tally struct {
	computes, nodeDisk, nodeNetwork, driveDisk, driveNetwork int64
	last                                                     Rates
	// key holds the inputs last was computed from.
	key rateKey
}

// rateKey is every input Compute reads: t and the parameters the
// rebuild paths read, the floats by their bits. No MTTF or error rate
// enters the rates.
type rateKey struct {
	rebuildCmd, utilization, capacity, linkSpeed, links uint64
	bandwidthFraction, iops, transfer, restripeCmd      uint64
	t, nodes, redundancy, drives                        int
}

// set makes k the inputs p and t, written field by field: a
// design-space enumeration misses on every call, so a miss must cost
// no more than these stores.
func (k *rateKey) set(p *params.Parameters, t int) {
	k.rebuildCmd = math.Float64bits(p.RebuildCommandBytes)
	k.utilization = math.Float64bits(p.CapacityUtilization)
	k.capacity = math.Float64bits(p.DriveCapacityBytes)
	k.linkSpeed = math.Float64bits(p.LinkSpeedGbps)
	k.links = math.Float64bits(p.EffectiveLinks)
	k.bandwidthFraction = math.Float64bits(p.RebuildBandwidthFraction)
	k.iops = math.Float64bits(p.DriveMaxIOPS)
	k.transfer = math.Float64bits(p.DriveTransferBytesPerSec)
	k.restripeCmd = math.Float64bits(p.RestripeCommandBytes)
	k.t, k.nodes, k.redundancy, k.drives = t, p.NodeSetSize, p.RedundancySetSize, p.DrivesPerNode
}

// matches reports whether p and t are the inputs of k, comparing field
// by field so a design-space enumeration, whose command size changes
// from call to call, tells a miss from its first compare.
func (k *rateKey) matches(p *params.Parameters, t int) bool {
	return k.rebuildCmd == math.Float64bits(p.RebuildCommandBytes) &&
		k.utilization == math.Float64bits(p.CapacityUtilization) &&
		k.nodes == p.NodeSetSize && k.t == t && k.redundancy == p.RedundancySetSize &&
		k.capacity == math.Float64bits(p.DriveCapacityBytes) &&
		k.linkSpeed == math.Float64bits(p.LinkSpeedGbps) &&
		k.links == math.Float64bits(p.EffectiveLinks) &&
		k.bandwidthFraction == math.Float64bits(p.RebuildBandwidthFraction) &&
		k.iops == math.Float64bits(p.DriveMaxIOPS) &&
		k.transfer == math.Float64bits(p.DriveTransferBytesPerSec) &&
		k.restripeCmd == math.Float64bits(p.RestripeCommandBytes) &&
		k.drives == p.DrivesPerNode
}

// Compute is the package-level Compute reading p through a pointer —
// the same floats, no Parameters copy — with the computation held in
// the tally until Flush. When t and every parameter the rates read are
// bit for bit those of the tally's latest computation (so +0 and −0
// differ), it returns that computation's Rates without recomputing
// them: a sweep over a lifetime or an error rate computes its rates
// once per chunk. A reused set is tallied as a computation all the
// same — rebuild.computes and the bottleneck counters count rate sets
// asked for, not evaluated.
func (tl *Tally) Compute(p *params.Parameters, t int) Rates {
	if t < 1 || t >= p.RedundancySetSize {
		panic(fmt.Sprintf("rebuild: fault tolerance %d out of range [1, R-1] with R=%d", t, p.RedundancySetSize))
	}
	if tl.computes == 0 || !tl.key.matches(p, t) {
		tl.key.set(p, t)
		nodeT, nodeB := distributedRebuildTime(p, p.NodeDataBytes(), t)
		driveT, driveB := distributedRebuildTime(p, p.DriveDataBytes(), t)
		tl.last = Rates{
			NodeRebuild:     1 / nodeT,
			DriveRebuild:    1 / driveT,
			Restripe:        1 / restripeTimeHours(p),
			NodeBottleneck:  nodeB,
			DriveBottleneck: driveB,
		}
	}
	tl.computes++
	switch tl.last.NodeBottleneck {
	case BottleneckDisk:
		tl.nodeDisk++
	case BottleneckNetwork:
		tl.nodeNetwork++
	}
	switch tl.last.DriveBottleneck {
	case BottleneckDisk:
		tl.driveDisk++
	case BottleneckNetwork:
		tl.driveNetwork++
	}
	return tl.last
}

// CrossoverLinkSpeedGbps returns the link speed at which the node rebuild
// switches from network-limited to disk-limited, holding every other
// parameter fixed (the knee visible in Figure 17, "around 3 Gb/s" at
// baseline). The crossover does not depend on the rebuild bandwidth
// fraction, which scales both paths equally.
func CrossoverLinkSpeedGbps(p params.Parameters, t int) float64 {
	r := float64(p.RedundancySetSize)
	netBytes := 2 * (r - float64(t))
	diskBytes := r - float64(t) + 1
	diskRate := float64(p.DrivesPerNode) * math.Min(p.DriveMaxIOPS*p.RebuildCommandBytes, p.DriveTransferBytesPerSec)
	// Network rate per Gb/s of link speed.
	perGbps := params.LinkBytesPerSecPerGbps * p.EffectiveLinks
	// Solve netBytes/(perGbps·L) == diskBytes/diskRate for L.
	return netBytes * diskRate / (diskBytes * perGbps)
}
