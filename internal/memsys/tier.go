package memsys

import (
	"fmt"

	"repro/internal/pcie"
)

// This file defines the memory-tier stack, the only description of a
// simulated machine's memory hierarchy (gpu.Config.Tiers). Each Tier couples
// a capacity with the interconnect cost model (pcie.LinkConfig) and
// device-side service model (DRAMModel) that accesses landing on it pay.
// The canonical two-tier stack is the paper's machine: GPU HBM and host
// DRAM behind one PCIe link. A third CXL-class tier extends the reach of the
// simulated system beyond host DRAM (microsecond-latency external memory,
// as in the CXL graph-processing literature — see PAPERS.md).

// TierKind identifies a tier's position in the memory hierarchy.
type TierKind uint8

const (
	// TierHBM is GPU-local global memory: no interconnect crossing.
	TierHBM TierKind = iota
	// TierDRAM is host DRAM behind the CPU-GPU interconnect (pinned
	// zero-copy and UVM backing live here).
	TierDRAM
	// TierCXL is external CXL-class memory: byte-addressable like host
	// DRAM, but behind a second, higher-latency link.
	TierCXL
)

// String returns the tier-kind label used in catalogs and metrics.
func (k TierKind) String() string {
	switch k {
	case TierHBM:
		return "hbm"
	case TierDRAM:
		return "dram"
	case TierCXL:
		return "cxl"
	default:
		return fmt.Sprintf("tier(%d)", uint8(k))
	}
}

// Tier is one level of the memory hierarchy: a capacity plus the cost
// models a GPU access to data homed there pays.
type Tier struct {
	// Name is a human-readable label ("HBM2 V100", "CXL expander").
	Name string
	// Kind is the tier's position in the hierarchy.
	Kind TierKind
	// CapacityBytes bounds allocations homed on this tier. Zero means
	// unlimited (mirroring Arena capacity semantics).
	CapacityBytes int64
	// Link is the interconnect crossed to reach the tier from the GPU.
	// Zero-valued for TierHBM (local accesses pay only Mem).
	Link pcie.LinkConfig
	// Mem is the tier's device-side service model (burst rounding and
	// sustainable bandwidth).
	Mem DRAMModel
}

// TierStack is an ordered memory hierarchy: HBM first, then host DRAM,
// optionally followed by a CXL-class external tier.
type TierStack []Tier

// Validate checks the stack's shape: exactly one HBM tier, exactly one DRAM
// tier, at most one CXL tier, in that order.
func (ts TierStack) Validate() error {
	if len(ts) < 2 || len(ts) > 3 {
		return fmt.Errorf("memsys: tier stack needs 2 or 3 tiers, got %d", len(ts))
	}
	want := []TierKind{TierHBM, TierDRAM, TierCXL}
	for i, t := range ts {
		if t.Kind != want[i] {
			return fmt.Errorf("memsys: tier %d is %s, want %s (stack order is HBM, DRAM, CXL)",
				i, t.Kind, want[i])
		}
	}
	for _, t := range ts[1:] {
		if t.Link.RawBytesPerSec <= 0 {
			return fmt.Errorf("memsys: %s tier %q has no interconnect model", t.Kind, t.Name)
		}
	}
	return nil
}

// byKind returns the first tier of the given kind, or nil.
func (ts TierStack) byKind(k TierKind) *Tier {
	for i := range ts {
		if ts[i].Kind == k {
			return &ts[i]
		}
	}
	return nil
}

// HBM returns the stack's GPU-local tier, or nil.
func (ts TierStack) HBM() *Tier { return ts.byKind(TierHBM) }

// DRAM returns the stack's host-DRAM tier, or nil.
func (ts TierStack) DRAM() *Tier { return ts.byKind(TierDRAM) }

// CXL returns the stack's external CXL-class tier, or nil (two-tier stacks).
func (ts TierStack) CXL() *Tier { return ts.byKind(TierCXL) }

// TwoTier returns the canonical two-tier stack: GPU HBM of gpuBytes over
// hostBytes of host DRAM behind one PCIe link. A zero capacity is uncapped.
func TwoTier(gpuBytes, hostBytes int64, hbm, dram DRAMModel, link pcie.LinkConfig) TierStack {
	return TierStack{
		{Name: hbm.Name, Kind: TierHBM, CapacityBytes: gpuBytes, Mem: hbm},
		{Name: dram.Name, Kind: TierDRAM, CapacityBytes: hostBytes, Mem: dram, Link: link},
	}
}

// WithCXL returns a copy of the stack extended with an external CXL-class
// tier of the given capacity behind cxlLink, served by cxlMem.
func (ts TierStack) WithCXL(capacityBytes int64, cxlLink pcie.LinkConfig, cxlMem DRAMModel) TierStack {
	out := make(TierStack, 0, len(ts)+1)
	for _, t := range ts {
		if t.Kind == TierCXL {
			continue
		}
		out = append(out, t)
	}
	out = append(out, Tier{
		Name:          cxlMem.Name,
		Kind:          TierCXL,
		CapacityBytes: capacityBytes,
		Link:          cxlLink,
		Mem:           cxlMem,
	})
	return out
}

// ThreeTierCXL returns a three-tier stack: the given two-tier base extended
// with a CXL-class external tier using the calibrated CXLLink and CXLExpander
// models.
func ThreeTierCXL(base TierStack, cxlBytes int64) TierStack {
	return base.WithCXL(cxlBytes, pcie.CXLLink(), CXLExpander())
}

// CXLExpander returns the external-memory device model of the CXL-class
// tier: a DDR-backed memory expander. Sequential bandwidth is modest (a
// single DDR4-3200 channel, 25.6 GB/s — above the CXL link's ceiling), and
// like host DRAM it serves whole 64-byte bursts.
func CXLExpander() DRAMModel {
	return DRAMModel{Name: "CXL expander DDR4-3200", BytesPerSec: 25.6e9, MinAccessBytes: 64}
}

// NewTieredArena creates an arena whose capacities come from a tier stack:
// HBM capacity for GPU allocations, DRAM capacity for pinned/UVM backing,
// and — when the stack has one — the CXL tier attached for SpaceCXL homes.
// It is the arena's only constructor; zero capacities mean unlimited.
func NewTieredArena(ts TierStack) (*Arena, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	a := &Arena{
		// Start away from address zero and keep the base 4KB-aligned,
		// like a real allocator would.
		nextVA:       1 << 20,
		GPUCapacity:  ts.HBM().CapacityBytes,
		HostCapacity: ts.DRAM().CapacityBytes,
	}
	if cxl := ts.CXL(); cxl != nil {
		a.AttachCXLTier(cxl)
	}
	return a, nil
}
