// Package core implements EMOGI itself: zero-copy out-of-memory graph
// traversal on the simulated GPU. It provides the device-side graph layout
// (§4.2: vertex list in GPU memory, edge list in host memory), the three
// kernel access variants the paper evaluates — Naive (Listing 1), Merged
// (§4.3.1), and Merged+Aligned (§4.3.2 / Listing 2) — and the three
// traversal applications: BFS, SSSP, and CC.
package core

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
)

// Variant selects the kernel access pattern (§5.1.2).
type Variant int

const (
	// Naive assigns one GPU thread per vertex; each thread iterates its
	// neighbor list alone, producing strided 32B requests (Listing 1).
	Naive Variant = iota
	// Merged assigns a full 32-thread warp per vertex so the coalescer can
	// merge lane accesses into large requests (§4.3.1).
	Merged
	// MergedAligned additionally shifts each warp's start down to the
	// closest preceding 128-byte boundary, masking the underflowed lanes
	// (§4.3.2, Listing 2's blue lines).
	MergedAligned
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case Naive:
		return "Naive"
	case Merged:
		return "Merged"
	case MergedAligned:
		return "Merged+Aligned"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Transport selects where the edge list lives.
type Transport int

const (
	// ZeroCopy pins the edge list in host memory and has GPU threads read
	// it directly with cache-line-sized PCIe requests (EMOGI).
	ZeroCopy Transport = iota
	// UVM places the edge list in managed memory with read-mostly advice;
	// pages migrate to GPU memory on fault (the baseline, §5.1.2(a)).
	UVM
)

// String returns a short name for the transport.
func (t Transport) String() string {
	switch t {
	case ZeroCopy:
		return "zerocopy"
	case UVM:
		return "uvm"
	default:
		return fmt.Sprintf("Transport(%d)", int(t))
	}
}

// Placement selects which host-side tier(s) the edge (and weight) list is
// homed on when the device has a CXL-class external tier. It is a no-op on
// two-tier devices: everything lands in host DRAM exactly as before.
type Placement int

const (
	// PlaceAuto fills host DRAM first and spills the tail segments to the
	// CXL tier only when DRAM capacity runs out (the default).
	PlaceAuto Placement = iota
	// PlaceDRAM forces the whole edge list into host DRAM; allocation fails
	// with ErrOutOfMemory if it does not fit.
	PlaceDRAM
	// PlaceCXL homes every edge segment on the CXL tier, leaving host DRAM
	// free (e.g. for other graphs or the adaptive host cache).
	PlaceCXL
)

// String returns the wire name for the placement ("auto", "dram", "cxl").
func (p Placement) String() string {
	switch p {
	case PlaceAuto:
		return "auto"
	case PlaceDRAM:
		return "dram"
	case PlaceCXL:
		return "cxl"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement maps a wire name back to a Placement.
func ParsePlacement(s string) (Placement, error) {
	switch s {
	case "auto", "":
		return PlaceAuto, nil
	case "dram":
		return PlaceDRAM, nil
	case "cxl":
		return PlaceCXL, nil
	default:
		return PlaceAuto, fmt.Errorf("core: unknown placement %q (want auto, dram, or cxl)", s)
	}
}

// DeviceGraph is a CSR graph laid out across the simulated system per
// §4.2: offsets (the vertex list) in GPU memory, edge destinations and
// weights in host memory (pinned or managed).
type DeviceGraph struct {
	Graph     *graph.CSR
	Transport Transport
	// EdgeBytes is the edge element width: 8 in the paper's main
	// experiments, 4 for the Subway comparison (Table 3).
	EdgeBytes int

	// Policy is the transport policy the graph was loaded under; upload
	// sets it (static zero-copy when the caller passes none). Transport
	// always holds the policy's base transport — the space Edges/Weights
	// were actually allocated in — so static runs are untouched by the
	// policy layer.
	Policy TransportPolicy

	Offsets *memsys.Buffer // GPU, 8-byte elements, len n+1
	Edges   *memsys.Buffer // host, EdgeBytes elements, len |E|
	Weights *memsys.Buffer // host, 4-byte elements, len |E| (nil if unweighted)

	// freed guards Free against double-release (the arena treats a
	// double free as corruption, not a no-op).
	freed bool
}

// PolicyName returns the name of the transport policy governing this graph.
func (dg *DeviceGraph) PolicyName() string { return dg.Policy.Name() }

// NumVertices returns |V|.
func (dg *DeviceGraph) NumVertices() int { return dg.Graph.NumVertices() }

// ElemsPerCacheLine returns how many edge elements fit one 128B line: the
// alignment quantum of the MergedAligned variant (16 for 8-byte elements —
// Listing 2's `& ~0xF` — or 32 for 4-byte).
func (dg *DeviceGraph) ElemsPerCacheLine() int64 {
	return int64(memsys.CacheLineBytes / dg.EdgeBytes)
}

// Upload places g into the device's memory system. The offsets array
// always goes to GPU memory ("GPU memory is sufficient for the vertex
// list", §4.2); edges and weights go to pinned host memory (ZeroCopy) or
// managed memory (UVM).
func Upload(dev *gpu.Device, g *graph.CSR, transport Transport, edgeBytes int) (*DeviceGraph, error) {
	return UploadPolicyPlaced(dev, g, StaticPolicyFor(transport), edgeBytes, PlaceAuto)
}

// planHomes computes the per-segment tier homes for a host-side allocation
// of the given size under a placement. A nil plan means a plain single-space
// allocation (everything in host DRAM).
func planHomes(arena *memsys.Arena, size int64, placement Placement) ([]memsys.Space, error) {
	cxl := arena.CXLTier()
	if cxl == nil {
		if placement == PlaceCXL {
			return nil, fmt.Errorf("core: placement %q requires a CXL tier, and the device has none", placement)
		}
		return nil, nil
	}
	nseg := int((size + memsys.SegmentBytes - 1) / memsys.SegmentBytes)
	switch placement {
	case PlaceDRAM:
		return nil, nil
	case PlaceCXL:
		homes := make([]memsys.Space, nseg)
		for i := range homes {
			homes[i] = memsys.SpaceCXL
		}
		return homes, nil
	}
	// PlaceAuto: host DRAM first, spill the tail to CXL only under pressure.
	hostFree := arena.HostFree()
	if hostFree < 0 || size <= hostFree {
		return nil, nil
	}
	homes := make([]memsys.Space, nseg)
	var placed int64
	for i := range homes {
		segEnd := placed + memsys.SegmentBytes
		if segEnd > size {
			segEnd = size
		}
		if segEnd <= hostFree {
			homes[i] = memsys.SpaceHostPinned
		} else {
			homes[i] = memsys.SpaceCXL
		}
		placed = segEnd
	}
	return homes, nil
}

// weightHomes derives the weight buffer's segment homes from the edge plan:
// weights follow their edges' placement at segment granularity. Weight
// segment j covers the edges whose 4-byte weights occupy that segment, i.e.
// edge offset j*SegmentBytes/4*edgeBytes.
func weightHomes(edgeHomes []memsys.Space, weightSize int64, edgeBytes int) []memsys.Space {
	if edgeHomes == nil {
		return nil
	}
	nseg := int((weightSize + memsys.SegmentBytes - 1) / memsys.SegmentBytes)
	homes := make([]memsys.Space, nseg)
	for j := range homes {
		edgeOff := int64(j) * memsys.SegmentBytes / 4 * int64(edgeBytes)
		edgeSeg := int(edgeOff / memsys.SegmentBytes)
		if edgeSeg >= len(edgeHomes) {
			edgeSeg = len(edgeHomes) - 1
		}
		homes[j] = edgeHomes[edgeSeg]
	}
	return homes
}

// capHomesToHostFree rechecks a DRAM-destined segment plan against the host
// DRAM actually left (earlier allocations — the edge list — have consumed
// capacity since the plan was derived): DRAM-bound segments that no longer
// fit flip to CXL, earliest-fits-first, mirroring planHomes' fill-then-spill
// order. Homes already aimed at CXL are untouched.
func capHomesToHostFree(arena *memsys.Arena, homes []memsys.Space, size int64) []memsys.Space {
	hostFree := arena.HostFree()
	if hostFree < 0 {
		return homes // unlimited host DRAM
	}
	var dramBytes int64
	for j := range homes {
		if homes[j] != memsys.SpaceHostPinned {
			continue
		}
		segStart := int64(j) * memsys.SegmentBytes
		segEnd := segStart + memsys.SegmentBytes
		if segEnd > size {
			segEnd = size
		}
		if dramBytes+(segEnd-segStart) > hostFree {
			homes[j] = memsys.SpaceCXL
			continue
		}
		dramBytes += segEnd - segStart
	}
	return homes
}

// UploadPolicyPlaced places g into the device's memory system under a
// transport policy (nil means static zero-copy) and a tier placement for
// the edge and weight lists (see Placement). The edge and weight lists are
// allocated in the policy's base space: pinned host memory unless the
// policy is statically UVM-bound. Routed (adaptive) policies start from
// pinned memory and rebind segments per round at run time. On devices
// without a CXL tier only PlaceAuto and PlaceDRAM are valid, and both are
// the historical layout.

func UploadPolicyPlaced(dev *gpu.Device, g *graph.CSR, policy TransportPolicy, edgeBytes int, placement Placement) (*DeviceGraph, error) {
	if policy == nil {
		policy = StaticPolicyFor(ZeroCopy)
	}
	transport := policyBase(policy)
	if edgeBytes != 4 && edgeBytes != 8 {
		return nil, fmt.Errorf("core: unsupported edge element width %d", edgeBytes)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: refusing to upload invalid graph: %w", err)
	}
	n := g.NumVertices()
	e := g.NumEdges()

	space := memsys.SpaceHostPinned
	if transport == UVM {
		space = memsys.SpaceUVM
	}
	arena := dev.Arena()

	offsets, err := arena.Alloc(g.Name+".offsets", memsys.SpaceGPU, int64(n+1)*8, memsys.WithElem(8))
	if err != nil {
		return nil, fmt.Errorf("core: allocating vertex list: %w", err)
	}
	edgeSize := e * int64(edgeBytes)
	edgeHomes, err := planHomes(arena, edgeSize, placement)
	if err != nil {
		arena.Free(offsets)
		return nil, err
	}
	edgeOpts := []memsys.AllocOption{memsys.WithElem(edgeBytes)}
	if edgeHomes != nil {
		edgeOpts = append(edgeOpts, memsys.WithSegmentHomes(edgeHomes))
	}
	edges, err := arena.Alloc(g.Name+".edges", space, edgeSize, edgeOpts...)
	if err != nil {
		arena.Free(offsets)
		return nil, fmt.Errorf("core: allocating edge list: %w", err)
	}
	dg := &DeviceGraph{
		Graph:     g,
		Transport: transport,
		Policy:    policy,
		EdgeBytes: edgeBytes,
		Offsets:   offsets,
		Edges:     edges,
	}
	for v := 0; v <= n; v++ {
		offsets.PutU64(int64(v), uint64(g.Offsets[v]))
	}
	if edgeBytes == 8 {
		for i, d := range g.Dst {
			edges.PutU64(int64(i), uint64(d))
		}
	} else {
		for i, d := range g.Dst {
			edges.PutU32(int64(i), d)
		}
	}
	if g.Weights != nil {
		// The weight plan runs after the edge allocation, so it sees the
		// host DRAM the edges actually consumed: segments the edge-derived
		// plan aims at DRAM spill to CXL once DRAM is exhausted, and a
		// weight list with no edge-derived plan (edges fully in DRAM) gets
		// its own capacity-aware plan instead of a guaranteed-OOM DRAM
		// allocation.
		wSize := e * 4
		wh := weightHomes(edgeHomes, wSize, edgeBytes)
		if wh == nil {
			wh, err = planHomes(arena, wSize, placement)
			if err != nil {
				arena.Free(offsets)
				arena.Free(edges)
				return nil, err
			}
		} else {
			wh = capHomesToHostFree(arena, wh, wSize)
		}
		wOpts := []memsys.AllocOption{memsys.WithElem(4)}
		if wh != nil {
			wOpts = append(wOpts, memsys.WithSegmentHomes(wh))
		}
		weights, err := arena.Alloc(g.Name+".weights", space, wSize, wOpts...)
		if err != nil {
			arena.Free(offsets)
			arena.Free(edges)
			return nil, fmt.Errorf("core: allocating weight list: %w", err)
		}
		for i, w := range g.Weights {
			weights.PutU32(int64(i), w)
		}
		dg.Weights = weights
	}
	// Explicit GPU allocations changed: refresh the UVM caching capacity.
	dev.ResetUVMResidency()
	return dg, nil
}

// ApplyPlacement re-homes an already-uploaded graph's edge and weight
// segments to match the requested placement, charging the data movement over
// the CXL link in whichever direction it crosses. PlaceAuto is sticky: it
// keeps whatever homes the graph already has. The move fails (leaving the
// already-moved prefix in place) if the destination tier runs out of
// capacity.
func ApplyPlacement(dev *gpu.Device, dg *DeviceGraph, placement Placement) error {
	if placement == PlaceAuto {
		return nil
	}
	arena := dev.Arena()
	if arena.CXLTier() == nil {
		if placement == PlaceCXL {
			return fmt.Errorf("core: placement %q requires a CXL tier, and the device has none", placement)
		}
		return nil // PlaceDRAM on a two-tier device is already the layout
	}
	target := memsys.SpaceHostPinned
	if placement == PlaceCXL {
		target = memsys.SpaceCXL
	}
	var toDRAM, toCXL int64
	rehome := func(b *memsys.Buffer) error {
		if b == nil {
			return nil
		}
		for s := 0; s < b.Segments(); s++ {
			cur := b.SegmentHome(s)
			if cur == target {
				continue
			}
			n := b.Size() - int64(s)*memsys.SegmentBytes
			if n > memsys.SegmentBytes {
				n = memsys.SegmentBytes
			}
			if err := arena.SetSegmentHome(b, s, target); err != nil {
				return fmt.Errorf("core: re-homing %q segment %d: %w", b.Name, s, err)
			}
			if target == memsys.SpaceCXL {
				toCXL += n
			} else {
				toDRAM += n
			}
		}
		return nil
	}
	if err := rehome(dg.Edges); err != nil {
		return err
	}
	if err := rehome(dg.Weights); err != nil {
		return err
	}
	if toDRAM > 0 {
		dev.PromoteFromCXL(toDRAM)
	}
	if toCXL > 0 {
		dev.DemoteToCXL(toCXL)
	}
	return nil
}

// Free releases the device graph's buffers. It is idempotent: freeing an
// already-freed graph is a no-op, so teardown paths (service shutdown,
// deferred unloads) can release unconditionally.
func (dg *DeviceGraph) Free(dev *gpu.Device) {
	if dg == nil || dg.freed {
		return
	}
	dg.freed = true
	arena := dev.Arena()
	arena.Free(dg.Offsets)
	arena.Free(dg.Edges)
	if dg.Weights != nil {
		arena.Free(dg.Weights)
	}
	dev.ResetUVMResidency()
}
