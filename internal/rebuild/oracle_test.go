package rebuild

import (
	"math"

	"repro/internal/params"
)

// Test-only: the per-drive and network throughputs and the drive rebuild
// and restripe times that Compute's rates are checked against.

// DriveThroughput returns the usable rebuild throughput of a single drive
// in bytes/sec for the given command size: commands are limited both by the
// drive's IOPS ceiling and by its sustained transfer rate, and rebuild work
// receives only RebuildBandwidthFraction of the result.
func DriveThroughput(p params.Parameters, commandBytes float64) float64 {
	raw := math.Min(p.DriveMaxIOPS*commandBytes, p.DriveTransferBytesPerSec)
	return raw * p.RebuildBandwidthFraction
}

// NetworkThroughput returns the usable rebuild throughput in and out of one
// node in bytes/sec: the sustained rate of its effective links times the
// rebuild bandwidth allocation.
func NetworkThroughput(p params.Parameters) float64 {
	return p.NodeNetworkBytesPerSec() * p.RebuildBandwidthFraction
}

// DriveRebuildTimeHours returns the time to rebuild one drive's worth of
// data after a drive failure in a no-internal-RAID configuration, and the
// limiting path. Spare capacity is evenly distributed, so the flow
// accounting matches the node rebuild with one drive's worth of data.
func DriveRebuildTimeHours(p params.Parameters, t int) (float64, Bottleneck) {
	return distributedRebuildTime(&p, p.DriveDataBytes(), t)
}

// RestripeTimeHours returns the time for an internal RAID array to
// re-stripe after a drive failure: the surviving d-1 drives' data is read
// once and written once at the restripe command size, entirely inside the
// node (no network involvement).
func RestripeTimeHours(p params.Parameters) float64 {
	return restripeTimeHours(&p)
}
