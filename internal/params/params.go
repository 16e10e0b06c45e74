// Package params defines the parameter set of the paper's Section 6
// ("Baseline Reliability") with units, validation and derived quantities.
//
// Conventions used throughout the module:
//   - times are in hours, rates in events per hour;
//   - capacities and command sizes are in bytes;
//   - throughputs are in bytes per second (converted internally).
package params

import (
	"errors"
	"fmt"
)

// Byte-size units.
const (
	KiB = 1024.0
	MiB = 1024.0 * KiB
	GB  = 1e9 // drives are sold in decimal gigabytes
	TB  = 1e12
	PB  = 1e15
)

// HoursPerYear converts MTTDL in hours to events per year (8766 h = 365.25 d).
const HoursPerYear = 8766.0

// LinkBytesPerSecPerGbps is the sustained payload throughput per Gb/s of
// raw link speed. The paper's baseline states "Link speed = 10 Gbps
// (800 MB/sec. sustained)", i.e. 80 MB/s of sustained throughput per Gb/s.
const LinkBytesPerSecPerGbps = 80e6

// Parameters holds every tunable of the reliability models. The zero value
// is not useful; start from Baseline() and override fields.
type Parameters struct {
	// NodeMTTFHours is the mean time to failure of a whole node
	// (controller, power supply, ... — any non-drive single point of
	// failure), in hours.
	NodeMTTFHours float64

	// DriveMTTFHours is the mean time to failure of one disk drive, in
	// hours.
	DriveMTTFHours float64

	// HardErrorRate is the probability of an uncorrectable (hard) read
	// error per bit read. The paper's baseline is one sector per 1e14 bits.
	HardErrorRate float64

	// DriveCapacityBytes is the raw capacity C of one drive.
	DriveCapacityBytes float64

	// NodeSetSize is N, the number of nodes in the storage system.
	NodeSetSize int

	// RedundancySetSize is R, the number of nodes spanned by one stripe
	// (data plus redundancy elements).
	RedundancySetSize int

	// DrivesPerNode is d.
	DrivesPerNode int

	// DriveMaxIOPS is the maximum I/O operations per second of one drive.
	DriveMaxIOPS float64

	// DriveTransferBytesPerSec is a drive's average sustained transfer
	// rate.
	DriveTransferBytesPerSec float64

	// RestripeCommandBytes is the command (block) size used when
	// re-striping an internal RAID array after a drive failure.
	RestripeCommandBytes float64

	// RebuildCommandBytes is the command (block) size used for
	// distributed node and drive rebuilds.
	RebuildCommandBytes float64

	// LinkSpeedGbps is the raw speed of one inter-node link in Gb/s.
	LinkSpeedGbps float64

	// EffectiveLinks is the effective number of links' worth of sustained
	// bandwidth a node can use concurrently for rebuild traffic. Nodes in
	// the Collective Intelligent Bricks mesh have six face links, but
	// transit traffic and topology limit the usable share; the paper cites
	// [1] without giving the value. The default 2.0 is calibrated so the
	// link-speed crossover of Figure 17 falls near the paper's "around
	// 3 Gb/s".
	EffectiveLinks float64

	// CapacityUtilization is the fraction of raw capacity holding data
	// (the rest is over-provisioned spare for fail-in-place).
	CapacityUtilization float64

	// RebuildBandwidthFraction is the fraction of drive and link
	// bandwidth allocated to rebuild and re-stripe work (the rest serves
	// foreground I/O).
	RebuildBandwidthFraction float64
}

// Enterprise returns a variant of the baseline with enterprise-class
// (FC/SCSI-era) drives instead of the paper's desktop/ATA assumption:
// longer MTTF, an order of magnitude better hard-error rate, smaller
// capacity, higher IOPS. The paper frames its parameters as
// "conservatively realistic" for ATA bricks; this preset quantifies what
// the premium drives would have bought.
func Enterprise() Parameters {
	p := Baseline()
	p.DriveMTTFHours = 1_000_000
	p.HardErrorRate = 1e-15
	p.DriveCapacityBytes = 146 * GB
	p.DriveMaxIOPS = 250
	p.DriveTransferBytesPerSec = 60e6
	return p
}

// Baseline returns the paper's Section 6 parameter set.
func Baseline() Parameters {
	return Parameters{
		NodeMTTFHours:            400_000,
		DriveMTTFHours:           300_000,
		HardErrorRate:            1e-14,
		DriveCapacityBytes:       300 * GB,
		NodeSetSize:              64,
		RedundancySetSize:        8,
		DrivesPerNode:            12,
		DriveMaxIOPS:             150,
		DriveTransferBytesPerSec: 40e6,
		RestripeCommandBytes:     1 * MiB,
		RebuildCommandBytes:      128 * KiB,
		LinkSpeedGbps:            10,
		EffectiveLinks:           2.0,
		CapacityUtilization:      0.75,
		RebuildBandwidthFraction: 0.10,
	}
}

// Validate reports the first problem that would make the models meaningless.
func (p *Parameters) Validate() error {
	switch {
	case p.NodeMTTFHours <= 0:
		return errors.New("params: NodeMTTFHours must be positive")
	case p.DriveMTTFHours <= 0:
		return errors.New("params: DriveMTTFHours must be positive")
	case p.HardErrorRate < 0:
		return errors.New("params: HardErrorRate must be non-negative")
	case p.DriveCapacityBytes <= 0:
		return errors.New("params: DriveCapacityBytes must be positive")
	case p.NodeSetSize < 2:
		return fmt.Errorf("params: NodeSetSize %d must be at least 2", p.NodeSetSize)
	case p.RedundancySetSize < 2:
		return fmt.Errorf("params: RedundancySetSize %d must be at least 2", p.RedundancySetSize)
	case p.RedundancySetSize > p.NodeSetSize:
		return fmt.Errorf("params: RedundancySetSize %d exceeds NodeSetSize %d", p.RedundancySetSize, p.NodeSetSize)
	case p.DrivesPerNode < 1:
		return fmt.Errorf("params: DrivesPerNode %d must be at least 1", p.DrivesPerNode)
	case p.DriveMaxIOPS <= 0:
		return errors.New("params: DriveMaxIOPS must be positive")
	case p.DriveTransferBytesPerSec <= 0:
		return errors.New("params: DriveTransferBytesPerSec must be positive")
	case p.RestripeCommandBytes <= 0:
		return errors.New("params: RestripeCommandBytes must be positive")
	case p.RebuildCommandBytes <= 0:
		return errors.New("params: RebuildCommandBytes must be positive")
	case p.LinkSpeedGbps <= 0:
		return errors.New("params: LinkSpeedGbps must be positive")
	case p.EffectiveLinks <= 0:
		return errors.New("params: EffectiveLinks must be positive")
	case p.CapacityUtilization <= 0 || p.CapacityUtilization > 1:
		return fmt.Errorf("params: CapacityUtilization %v must be in (0, 1]", p.CapacityUtilization)
	case p.RebuildBandwidthFraction <= 0 || p.RebuildBandwidthFraction > 1:
		return fmt.Errorf("params: RebuildBandwidthFraction %v must be in (0, 1]", p.RebuildBandwidthFraction)
	}
	return nil
}

// NodeFailureRate returns λ_N in failures per hour.
func (p *Parameters) NodeFailureRate() float64 { return 1 / p.NodeMTTFHours }

// DriveFailureRate returns λ_d in failures per hour.
func (p *Parameters) DriveFailureRate() float64 { return 1 / p.DriveMTTFHours }

// CHER returns C·HER: the expected number of hard errors incurred by
// reading one full drive (capacity in bytes × 8 bits × rate per bit).
func (p *Parameters) CHER() float64 {
	return p.DriveCapacityBytes * 8 * p.HardErrorRate
}

// DriveDataBytes returns the amount of data stored on one drive
// (capacity × utilization).
func (p *Parameters) DriveDataBytes() float64 {
	return p.DriveCapacityBytes * p.CapacityUtilization
}

// NodeDataBytes returns one node's worth of stored data.
func (p *Parameters) NodeDataBytes() float64 {
	return float64(p.DrivesPerNode) * p.DriveDataBytes()
}

// RawSystemBytes returns the total raw capacity of the node set.
func (p *Parameters) RawSystemBytes() float64 {
	return float64(p.NodeSetSize) * float64(p.DrivesPerNode) * p.DriveCapacityBytes
}

// LinkSustainedBytesPerSec returns the sustained payload rate of one link.
func (p *Parameters) LinkSustainedBytesPerSec() float64 {
	return p.LinkSpeedGbps * LinkBytesPerSecPerGbps
}

// NodeNetworkBytesPerSec returns the total sustained rate at which data can
// move in or out of one node across its effective links, before the rebuild
// bandwidth allocation is applied.
func (p *Parameters) NodeNetworkBytesPerSec() float64 {
	return p.LinkSustainedBytesPerSec() * p.EffectiveLinks
}
