package params

import (
	"math"
	"strings"
	"testing"
)

func TestBaselineValid(t *testing.T) {
	p := Baseline()
	if err := p.Validate(); err != nil {
		t.Fatalf("Baseline().Validate() = %v", err)
	}
}

func TestBaselinePaperValues(t *testing.T) {
	p := Baseline()
	if p.NodeMTTFHours != 400_000 {
		t.Errorf("NodeMTTFHours = %v, want 400000", p.NodeMTTFHours)
	}
	if p.DriveMTTFHours != 300_000 {
		t.Errorf("DriveMTTFHours = %v, want 300000", p.DriveMTTFHours)
	}
	if p.NodeSetSize != 64 || p.RedundancySetSize != 8 || p.DrivesPerNode != 12 {
		t.Errorf("N,R,d = %d,%d,%d, want 64,8,12", p.NodeSetSize, p.RedundancySetSize, p.DrivesPerNode)
	}
	if p.DriveCapacityBytes != 300e9 {
		t.Errorf("DriveCapacityBytes = %v, want 3e11", p.DriveCapacityBytes)
	}
	// Paper: 10 Gb/s sustains 800 MB/s.
	if got := p.LinkSustainedBytesPerSec(); got != 800e6 {
		t.Errorf("LinkSustainedBytesPerSec = %v, want 8e8", got)
	}
}

func TestDerivedRates(t *testing.T) {
	p := Baseline()
	if got, want := p.NodeFailureRate(), 2.5e-6; math.Abs(got-want) > 1e-18 {
		t.Errorf("NodeFailureRate = %v, want %v", got, want)
	}
	if got, want := p.DriveFailureRate(), 1/3e5; math.Abs(got-want) > 1e-18 {
		t.Errorf("DriveFailureRate = %v, want %v", got, want)
	}
	// C·HER = 3e11 bytes × 8 bits × 1e-14 per bit = 0.024.
	if got, want := p.CHER(), 0.024; math.Abs(got-want) > 1e-15 {
		t.Errorf("CHER = %v, want %v", got, want)
	}
}

func TestDataSizes(t *testing.T) {
	p := Baseline()
	if got, want := p.DriveDataBytes(), 225e9; got != want {
		t.Errorf("DriveDataBytes = %v, want %v", got, want)
	}
	if got, want := p.NodeDataBytes(), 2.7e12; got != want {
		t.Errorf("NodeDataBytes = %v, want %v", got, want)
	}
	if got, want := p.RawSystemBytes(), 64*12*300e9; got != want {
		t.Errorf("RawSystemBytes = %v, want %v", got, want)
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Parameters)
		wantSub string
	}{
		{"node mttf", func(p *Parameters) { p.NodeMTTFHours = 0 }, "NodeMTTFHours"},
		{"drive mttf", func(p *Parameters) { p.DriveMTTFHours = -1 }, "DriveMTTFHours"},
		{"her", func(p *Parameters) { p.HardErrorRate = -1e-15 }, "HardErrorRate"},
		{"capacity", func(p *Parameters) { p.DriveCapacityBytes = 0 }, "DriveCapacityBytes"},
		{"node set", func(p *Parameters) { p.NodeSetSize = 1 }, "NodeSetSize"},
		{"rset small", func(p *Parameters) { p.RedundancySetSize = 1 }, "RedundancySetSize"},
		{"rset big", func(p *Parameters) { p.RedundancySetSize = 65 }, "RedundancySetSize"},
		{"drives", func(p *Parameters) { p.DrivesPerNode = 0 }, "DrivesPerNode"},
		{"iops", func(p *Parameters) { p.DriveMaxIOPS = 0 }, "DriveMaxIOPS"},
		{"transfer", func(p *Parameters) { p.DriveTransferBytesPerSec = 0 }, "DriveTransferBytesPerSec"},
		{"restripe", func(p *Parameters) { p.RestripeCommandBytes = 0 }, "RestripeCommandBytes"},
		{"rebuild cmd", func(p *Parameters) { p.RebuildCommandBytes = 0 }, "RebuildCommandBytes"},
		{"link", func(p *Parameters) { p.LinkSpeedGbps = 0 }, "LinkSpeedGbps"},
		{"links", func(p *Parameters) { p.EffectiveLinks = 0 }, "EffectiveLinks"},
		{"util zero", func(p *Parameters) { p.CapacityUtilization = 0 }, "CapacityUtilization"},
		{"util big", func(p *Parameters) { p.CapacityUtilization = 1.5 }, "CapacityUtilization"},
		{"bw frac", func(p *Parameters) { p.RebuildBandwidthFraction = 0 }, "RebuildBandwidthFraction"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := Baseline()
			c.mutate(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("Validate() = %q, want mention of %q", err, c.wantSub)
			}
		})
	}
}

func TestUtilizationBoundaryOK(t *testing.T) {
	p := Baseline()
	p.CapacityUtilization = 1
	p.RebuildBandwidthFraction = 1
	if err := p.Validate(); err != nil {
		t.Errorf("Validate() with full utilization = %v, want nil", err)
	}
}

func TestNodeNetworkBandwidth(t *testing.T) {
	p := Baseline()
	// 2 effective links × 800 MB/s.
	if got, want := p.NodeNetworkBytesPerSec(), 1.6e9; got != want {
		t.Errorf("NodeNetworkBytesPerSec = %v, want %v", got, want)
	}
}

func TestUnitsConstants(t *testing.T) {
	if KiB != 1024 || MiB != 1024*1024 {
		t.Error("binary units wrong")
	}
	if GB != 1e9 || TB != 1e12 || PB != 1e15 {
		t.Error("decimal units wrong")
	}
}
