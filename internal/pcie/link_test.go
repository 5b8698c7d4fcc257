package pcie

import (
	"math"
	"testing"
	"time"
)

// gbps is a readability helper: bytes/sec -> GB/s.
func gbps(bytesPerSec float64) float64 { return bytesPerSec / 1e9 }

// TestCalibrationGen3 pins the model to the paper's §3.3 measurements.
// These are the anchors everything downstream depends on; if a constant
// changes, these tests say exactly which paper number broke.
func TestCalibrationGen3(t *testing.T) {
	link := Gen3x16()
	cases := []struct {
		name    string
		size    int
		wantGB  float64
		within  float64
		comment string
	}{
		{"memcpy-peak-128B", 128, 12.3, 0.3, "paper: 12.23-12.36 GB/s"},
		{"strided-32B", 32, 4.74, 0.15, "paper Fig 4(a): 4.74 GB/s"},
		{"96B", 96, 11.0, 1.0, "between 64B and 128B"},
	}
	for _, tc := range cases {
		got := gbps(link.EffectiveBandwidth(tc.size))
		if math.Abs(got-tc.wantGB) > tc.within {
			t.Errorf("%s: bandwidth = %.2f GB/s, want %.2f±%.2f (%s)",
				tc.name, got, tc.wantGB, tc.within, tc.comment)
		}
	}
	// Misaligned pattern: alternating 32B + 96B requests carrying 128B of
	// payload per pair, pipelined. Paper Fig 4(c): 9.61 GB/s.
	pair := StreamSeconds(
		link.WireSeconds(32)+link.WireSeconds(96),
		2*link.TagSeconds(),
	)
	got := gbps(128 / pair)
	if math.Abs(got-9.6) > 0.4 {
		t.Errorf("misaligned pair bandwidth = %.2f GB/s, want 9.6±0.4", got)
	}
}

func TestCalibrationGen4(t *testing.T) {
	link := Gen4x16()
	got := gbps(link.MemcpyPeak())
	if math.Abs(got-24.3) > 0.8 {
		t.Errorf("Gen4 memcpy peak = %.2f GB/s, want ~24 (paper §5.5)", got)
	}
	// The paper's headline scaling claim: EMOGI's 128B streams scale ~2x
	// moving Gen3 -> Gen4.
	scale := link.MemcpyPeak() / Gen3x16().MemcpyPeak()
	if math.Abs(scale-2.0) > 0.1 {
		t.Errorf("Gen4/Gen3 peak ratio = %.2f, want ~2.0", scale)
	}
}

func TestWireSeconds(t *testing.T) {
	link := Gen3x16()
	if got := link.WireSeconds(0); got != 0 {
		t.Errorf("WireSeconds(0) = %v, want 0", got)
	}
	if got := link.WireSeconds(-4); got != 0 {
		t.Errorf("WireSeconds(-4) = %v, want 0", got)
	}
	// Larger payloads take longer on the wire.
	if link.WireSeconds(128) <= link.WireSeconds(32) {
		t.Errorf("wire time should grow with payload")
	}
}

func TestTagSeconds(t *testing.T) {
	link := Gen3x16()
	want := link.RTT.Seconds() / float64(link.MaxTags)
	if got := link.TagSeconds(); got != want {
		t.Errorf("TagSeconds = %v, want %v", got, want)
	}
	link.MaxTags = 0
	if got := link.TagSeconds(); got != 0 {
		t.Errorf("TagSeconds with no tags = %v, want 0", got)
	}
}

func TestRequestSecondsIsMax(t *testing.T) {
	link := Gen3x16()
	// 32B requests are tag-limited on Gen3: tag time dominates.
	if got, tag := link.RequestSeconds(32), link.TagSeconds(); got != tag {
		t.Errorf("32B requests should be tag-limited: %v vs %v", got, tag)
	}
	// 128B requests are wire-limited.
	if got, wire := link.RequestSeconds(128), link.WireSeconds(128); got != wire {
		t.Errorf("128B requests should be wire-limited: %v vs %v", got, wire)
	}
}

// TestBandwidthMonotoneInSize verifies that larger requests never reduce
// effective bandwidth — the monotonicity underlying the merge optimization.
func TestBandwidthMonotoneInSize(t *testing.T) {
	for _, link := range []LinkConfig{Gen3x16(), Gen4x16()} {
		prev := 0.0
		for _, size := range []int{32, 64, 96, 128} {
			bw := link.EffectiveBandwidth(size)
			if bw < prev {
				t.Errorf("%s: bandwidth decreased at %dB: %.2f < %.2f",
					link.Name, size, gbps(bw), gbps(prev))
			}
			prev = bw
		}
	}
}

// TestMergeBenefit encodes the core §3.3 observation: one 128B request is
// far cheaper than four 32B requests.
func TestMergeBenefit(t *testing.T) {
	link := Gen3x16()
	four32 := 4 * link.RequestSeconds(32)
	one128 := link.RequestSeconds(128)
	if ratio := four32 / one128; ratio < 2.0 {
		t.Errorf("merged access should be >=2x cheaper, got %.2fx", ratio)
	}
}

// TestMisalignmentPenalty encodes §3.3's misalignment cost: a 32B+96B split
// is slower than a single aligned 128B request.
func TestMisalignmentPenalty(t *testing.T) {
	link := Gen3x16()
	split := link.RequestSeconds(32) + link.RequestSeconds(96)
	aligned := link.RequestSeconds(128)
	if split <= aligned {
		t.Errorf("misaligned split should cost more: split=%v aligned=%v", split, aligned)
	}
}

func TestBulkSeconds(t *testing.T) {
	link := Gen3x16()
	if got := link.BulkSeconds(0); got != 0 {
		t.Errorf("BulkSeconds(0) = %v", got)
	}
	n := int64(1 << 20)
	want := float64(n) / link.MemcpyPeak()
	if got := link.BulkSeconds(n); math.Abs(got-want) > 1e-15 {
		t.Errorf("BulkSeconds = %v, want %v", got, want)
	}
}

// TestTagLimitArithmetic reproduces the paper's own worked example: with
// only 32B requests and a 1.0-1.6us RTT, 256 tags cap bandwidth at
// 4.77-7.63 GB/s regardless of wire speed.
func TestTagLimitArithmetic(t *testing.T) {
	link := Gen3x16()
	link.MaxTags = 256
	link.RTT = 1000 * time.Nanosecond
	if got := gbps(link.EffectiveBandwidth(32)); math.Abs(got-8.19) > 0.1 {
		// 32B * 256 / 1.0us = 8.19 GB/s (paper rounds to 7.63 GiB/s).
		t.Errorf("1.0us/256-tag limit = %.2f GB/s, want 8.19", got)
	}
	link.RTT = 1600 * time.Nanosecond
	if got := gbps(link.EffectiveBandwidth(32)); math.Abs(got-5.12) > 0.1 {
		// 32B * 256 / 1.6us = 5.12 GB/s (paper: 4.77 GiB/s).
		t.Errorf("1.6us/256-tag limit = %.2f GB/s, want 5.12", got)
	}
}

func TestLinkWidthScaling(t *testing.T) {
	x16 := Link(Gen3, 16)
	x8 := Link(Gen3, 8)
	x4 := Link(Gen3, 4)
	if x8.RawBytesPerSec*2 != x16.RawBytesPerSec {
		t.Errorf("x8 should be half of x16 wire rate")
	}
	if x4.RawBytesPerSec*4 != x16.RawBytesPerSec {
		t.Errorf("x4 should be a quarter of x16 wire rate")
	}
	// Tags and RTT are width-independent.
	if x8.MaxTags != x16.MaxTags || x8.RTT != x16.RTT {
		t.Errorf("tag budget and RTT must not depend on width")
	}
	// Narrow links become wire-bound even for 32B requests.
	if x4.EffectiveBandwidth(128) >= x16.EffectiveBandwidth(128)/2 {
		t.Errorf("x4 128B bandwidth should be far below x16's")
	}
	if got := Link(Gen3, 0); got.Name != Gen3x16().Name {
		t.Errorf("zero lanes should default to x16")
	}
	if got := Link(Gen4, 8); got.Name != "PCIe 4.0 x8" || got.RawBytesPerSec != Gen4x16().RawBytesPerSec/2 {
		t.Errorf("Gen4 width variant lost its generation: %+v", got)
	}
	if got := Link(Gen(9), 16); got != Gen3x16() {
		t.Errorf("unknown generation should default to Gen3")
	}
}
