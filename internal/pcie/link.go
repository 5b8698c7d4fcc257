// Package pcie models the CPU-GPU interconnect: an analytic PCIe link whose
// throughput is limited both by wire bytes (payload plus transaction-layer
// packet overhead) and by the number of outstanding non-posted read requests
// (the 8-bit tag field of PCIe 3.0, §3.3 of the paper), plus a traffic
// monitor equivalent to the paper's FPGA-based observation platform.
//
// Calibration. The model constants are fixed once against the paper's own
// §3.3 microbenchmark numbers and then never changed per-experiment:
//
//	128B requests on Gen3 x16  -> 12.3 GB/s  (paper: 12.23-12.36, = memcpy peak)
//	32B requests on Gen3 x16   ->  4.75 GB/s (paper: 4.74, tag-limited)
//	32B+96B pairs on Gen3 x16  ->  9.5 GB/s  (paper: 9.61, tag-limited)
//	128B requests on Gen4 x16  -> 24.6 GB/s  (paper: ~24, wire-limited)
package pcie

import (
	"fmt"
	"time"
)

// Gen identifies a PCIe generation for a x16 link.
type Gen int

const (
	// Gen3 is PCIe 3.0 x16: 8 GT/s per lane, 128b/130b encoding.
	Gen3 Gen = 3
	// Gen4 is PCIe 4.0 x16: 16 GT/s per lane.
	Gen4 Gen = 4
)

// LinkConfig describes one x16 link.
type LinkConfig struct {
	Name string

	// RawBytesPerSec is the post-encoding wire rate in each direction.
	RawBytesPerSec float64

	// TLPOverheadBytes is the average per-request wire overhead: the 3-DW
	// TLP header with 64-bit addressing (18 bytes per the paper) plus
	// framing and DLLP share, amortized.
	TLPOverheadBytes int

	// Efficiency captures flow control, ACK traffic, and completion-side
	// overhead as a single multiplicative derating of the wire rate.
	Efficiency float64

	// MaxTags is the effective number of outstanding non-posted read
	// requests the GPU sustains. PCIe 3.0's tag field is 8 bits (<=256);
	// the effective value is lower because the GPU does not keep every tag
	// in flight continuously. PCIe 4.0 supports 10-bit tags.
	MaxTags int

	// RTT is the request round-trip time between GPU and host memory, the
	// paper's measured 1.0-1.6us; we use the midpoint.
	RTT time.Duration

	// Faults, when non-nil, injects deterministic faults into the link:
	// per-request transient failures and latency spikes, and a steady wire
	// derating (link retrained to a lower generation). Nil means a healthy
	// link and leaves every formula bit-for-bit unchanged.
	Faults FaultHook
}

// Gen3x16 returns the calibrated PCIe 3.0 x16 link of the paper's V100
// evaluation platform (Table 1).
func Gen3x16() LinkConfig {
	return LinkConfig{
		Name:             "PCIe 3.0 x16",
		RawBytesPerSec:   15.754e9, // 8 GT/s * 16 lanes * 128/130
		TLPOverheadBytes: 24,
		Efficiency:       0.93,
		MaxTags:          215,
		RTT:              1450 * time.Nanosecond,
	}
}

// Link returns a calibrated link of the given generation and width. Lane
// count scales the wire rate; the tag budget and RTT are properties of the
// protocol and the GPU, not the width.
func Link(gen Gen, lanes int) LinkConfig {
	var base LinkConfig
	switch gen {
	case Gen4:
		base = Gen4x16()
	default:
		base = Gen3x16()
	}
	if lanes <= 0 || lanes == 16 {
		return base
	}
	base.Name = fmt.Sprintf("PCIe %d.0 x%d", int(gen), lanes)
	base.RawBytesPerSec *= float64(lanes) / 16
	return base
}

// Gen4x16 returns the calibrated PCIe 4.0 x16 link of the DGX A100
// platform used in §5.5.
func Gen4x16() LinkConfig {
	return LinkConfig{
		Name:             "PCIe 4.0 x16",
		RawBytesPerSec:   31.508e9,
		TLPOverheadBytes: 24,
		Efficiency:       0.93,
		MaxTags:          512, // 10-bit tags; effective value scaled like Gen3's
		RTT:              1450 * time.Nanosecond,
	}
}

// CXLLink returns the external-memory tier's interconnect: a CXL-class
// memory expander behind a switch (the pooled configuration the CXL
// graph-processing literature targets). The wire is an x8 PCIe 5.0 PHY
// derated for the CXL.mem flit protocol; bulk transfers reach roughly the
// Gen3 x16 ceiling, so the tier's distinguishing cost is latency: a
// microsecond-class round trip that makes small random reads tag-bound and
// hub-vertex walks latency-bound, rewarding exactly the latency-tolerance
// EMOGI's coalesced streaming already has.
func CXLLink() LinkConfig {
	return LinkConfig{
		Name:             "CXL 2.0 x8 (switched)",
		RawBytesPerSec:   16.0e9, // 32 GT/s * 8 lanes * flit efficiency share
		TLPOverheadBytes: 24,     // 64B flit slot overhead, amortized
		Efficiency:       0.90,
		MaxTags:          256, // CXL.mem outstanding-read credit budget
		RTT:              2500 * time.Nanosecond,
	}
}

// WireSeconds returns the wire occupancy of one request of the given
// payload size, including TLP overhead and efficiency derating.
func (c LinkConfig) WireSeconds(payloadBytes int) float64 {
	if payloadBytes <= 0 {
		return 0
	}
	wire := float64(payloadBytes + c.TLPOverheadBytes)
	s := wire / (c.RawBytesPerSec * c.Efficiency)
	if c.Faults != nil {
		// Degraded link: wire occupancy stretches by the retrained-rate
		// ratio. Guarded so the fault-free float math stays bit-identical.
		s *= c.wireScale()
	}
	return s
}

// TagSeconds returns the tag-occupancy cost of one request: with MaxTags
// requests kept in flight over a round trip, the link completes one request
// every RTT/MaxTags on average (Little's law).
func (c LinkConfig) TagSeconds() float64 {
	if c.MaxTags <= 0 {
		return 0
	}
	return c.RTT.Seconds() / float64(c.MaxTags)
}

// RequestSeconds returns the steady-state time the link needs per request
// in a *uniform* stream of requests of the given size: the larger of its
// wire occupancy and its tag occupancy.
//
// For mixed streams this per-request max overestimates: wire idle time of
// small tag-bound requests overlaps the tag slack of large wire-bound ones.
// Mixed streams must use StreamSeconds (accumulate wire and tag occupancy
// separately and take the max of the sums), which is what the GPU device's
// kernel accounting does.
func (c LinkConfig) RequestSeconds(payloadBytes int) float64 {
	w := c.WireSeconds(payloadBytes)
	t := c.TagSeconds()
	if w > t {
		return w
	}
	return t
}

// StreamSeconds returns the link time for a pipelined stream with the given
// total wire occupancy and total tag occupancy: the stream finishes when
// both the wire and the tag window have drained, i.e. max of the sums.
func StreamSeconds(wireSeconds, tagSeconds float64) float64 {
	if wireSeconds > tagSeconds {
		return wireSeconds
	}
	return tagSeconds
}

// EffectiveBandwidth returns the steady-state payload bandwidth for a
// uniform stream of requests of the given size.
func (c LinkConfig) EffectiveBandwidth(payloadBytes int) float64 {
	s := c.RequestSeconds(payloadBytes)
	if s <= 0 {
		return 0
	}
	return float64(payloadBytes) / s
}

// MemcpyPeak returns the bandwidth of a bulk cudaMemcpy-style transfer,
// which moves data as a stream of maximum-size (128B) requests. On the
// calibrated Gen3 link this is ~12.3 GB/s, matching the paper's measured
// ceiling.
func (c LinkConfig) MemcpyPeak() float64 {
	return c.EffectiveBandwidth(128)
}

// BulkSeconds returns the time to move n bytes as a bulk transfer at
// MemcpyPeak bandwidth (DMA engines use full-size requests and are not
// tag-limited in practice).
func (c LinkConfig) BulkSeconds(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / c.MemcpyPeak()
}
