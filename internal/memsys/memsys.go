// Package memsys provides the simulated memory substrate: a single virtual
// address arena with typed buffers placed in one of three spaces (GPU global
// memory, pinned zero-copy host memory, or UVM-managed memory), plus simple
// bandwidth models for host DDR4 DRAM and GPU HBM2.
//
// Buffers carry real backing bytes: simulated kernels actually read and
// write data through them, so graph traversal results are functionally
// correct, not just performance-modeled.
package memsys

import (
	"encoding/binary"
	"fmt"
)

// Space identifies where a buffer physically lives and therefore which
// transport a GPU access to it takes.
type Space uint8

const (
	// SpaceGPU is GPU global memory (HBM). Accesses are local to the GPU.
	SpaceGPU Space = iota
	// SpaceHostPinned is pinned host memory accessed via zero-copy: every
	// GPU access becomes a cache-line-sized PCIe read/write.
	SpaceHostPinned
	// SpaceUVM is managed memory: accesses fault 4KB pages into GPU memory
	// on demand, after which they are served from HBM.
	SpaceUVM
	// SpaceCXL is external CXL-class memory: byte-addressable like pinned
	// host memory, but reached over the (higher-latency) CXL tier link.
	// Buffers are rarely allocated wholly in it; segments of DRAM-based
	// buffers are homed there when the working set spills past host DRAM
	// (see Buffer.SetSegmentHome and the tier stack in tier.go).
	SpaceCXL
)

// String returns a short human-readable name for the space.
func (s Space) String() string {
	switch s {
	case SpaceGPU:
		return "gpu"
	case SpaceHostPinned:
		return "zerocopy"
	case SpaceUVM:
		return "uvm"
	case SpaceCXL:
		return "cxl"
	default:
		return fmt.Sprintf("space(%d)", uint8(s))
	}
}

// CacheLineBytes is the GPU cache line size; the coalescing unit merges
// accesses within one line into a single request.
const CacheLineBytes = 128

// SectorBytes is the minimum external memory transaction size (one L2
// sector); all PCIe requests are whole multiples of it.
const SectorBytes = 32

// PageBytes is the UVM migration granularity (one system page).
const PageBytes = 4096

// SegmentBytes is the fixed partition granule used by the transport-policy
// layer: edge lists are split into segments of this size and each segment is
// bound to one transport substrate per round. It is a multiple of
// CacheLineBytes so a coalesced request (which never spans a cache line)
// never straddles two segments, and a multiple of PageBytes so segment
// boundaries align with UVM pages.
const SegmentBytes = 1 << SegmentShift

// SegmentShift is log2(SegmentBytes): the shift that indexes a route table
// with one entry per segment (SetRoute).
const SegmentShift = 16

// Buffer is a device-visible allocation. Base is its simulated virtual
// address; Data is the real backing store. Space is where it is allocated;
// SpaceAt resolves the space that serves each access, which a routed
// transport policy varies per segment through a route table (SetRoute) and
// tier placement through per-segment homes.
type Buffer struct {
	Name  string
	Space Space
	Base  uint64
	Data  []byte

	// Elem is the element width in bytes used by typed accessors for this
	// buffer's primary payload (4 or 8). Informational; accessors below
	// take explicit widths.
	Elem int

	// route, when non-nil, is the transport router a routed policy
	// installs (SetRoute), so a single buffer can be served zero-copy, via
	// UVM, or from a staged HBM copy per segment. Nil (the default, and
	// always for statically bound buffers) costs one pointer check per
	// access.
	route      []Space
	routeShift uint

	// segHome, when non-nil, records each SegmentBytes-sized segment's home
	// tier space — where the segment's backing bytes physically live. Nil
	// (the default) means every segment is homed in Space. Placement across
	// a tier stack (DRAM-first with spill to CXL) sets entries to SpaceCXL;
	// accounting moves with them through Arena.SetSegmentHome.
	segHome []Space
}

// SetRoute installs route as b's transport router: a GPU access at byte
// offset off is served from route[off>>shift]. The table must cover every
// offset of the buffer, and the caller may rewrite its entries between
// launches. A nil route removes the router.
func (b *Buffer) SetRoute(route []Space, shift uint) {
	b.route, b.routeShift = route, shift
}

// SpaceAt returns the space that serves a GPU access at byte offset off.
// Precedence: an installed router (SetRoute) decides first; otherwise a
// UVM-managed buffer is always served through the UVM space (its segment
// homes describe where pages migrate *from*, not how accesses are served);
// otherwise the segment's home space; otherwise the buffer's static Space.
//
// Offsets below zero resolve to the first segment: a coalesced run's first
// sector starts up to 31 bytes before a buffer whose Base is not
// sector-aligned.
func (b *Buffer) SpaceAt(off int64) Space {
	if b.route != nil {
		return b.route[max(off, 0)>>b.routeShift]
	}
	if b.Space == SpaceUVM {
		return SpaceUVM
	}
	if b.segHome != nil {
		return b.segHome[off/SegmentBytes]
	}
	return b.Space
}

// UniformSpace returns the space SpaceAt reports for every offset of b, and
// true, when that space cannot vary with the offset: no router installed,
// and the buffer is UVM-managed or has no per-segment homes. Otherwise it
// returns false and callers resolve each offset with SpaceAt.
func (b *Buffer) UniformSpace() (Space, bool) {
	if b.route != nil || (b.segHome != nil && b.Space != SpaceUVM) {
		return 0, false
	}
	return b.Space, true
}

// HomeAt returns the home tier space of the segment containing byte offset
// off: where its backing bytes physically live, independent of any router
// or UVM management layered on top.
func (b *Buffer) HomeAt(off int64) Space {
	if b.segHome != nil {
		return b.segHome[off/SegmentBytes]
	}
	if b.Space == SpaceUVM {
		return SpaceHostPinned // UVM backing lives in host DRAM by default
	}
	return b.Space
}

// SegmentHome returns segment i's home space (see HomeAt).
func (b *Buffer) SegmentHome(i int) Space {
	return b.HomeAt(int64(i) * SegmentBytes)
}

// segmentBytes returns segment i's length (SegmentBytes except the tail).
func (b *Buffer) segmentBytes(i int) int64 {
	return segLen(b.Size(), i)
}

// segLen returns segment i's length for a buffer of the given total size.
func segLen(size int64, i int) int64 {
	n := size - int64(i)*SegmentBytes
	if n > SegmentBytes {
		n = SegmentBytes
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Segments returns the number of SegmentBytes-sized segments the buffer
// spans.
func (b *Buffer) Segments() int {
	return int((b.Size() + SegmentBytes - 1) / SegmentBytes)
}

// Size returns the buffer length in bytes.
func (b *Buffer) Size() int64 { return int64(len(b.Data)) }

// Pages returns the number of 4KB pages the buffer spans.
func (b *Buffer) Pages() int {
	return int((b.Size() + PageBytes - 1) / PageBytes)
}

// U64 reads the 64-bit little-endian element at index i.
func (b *Buffer) U64(i int64) uint64 {
	return binary.LittleEndian.Uint64(b.Data[i*8:])
}

// PutU64 writes the 64-bit element at index i.
func (b *Buffer) PutU64(i int64, v uint64) {
	binary.LittleEndian.PutUint64(b.Data[i*8:], v)
}

// U32 reads the 32-bit little-endian element at index i.
func (b *Buffer) U32(i int64) uint32 {
	return binary.LittleEndian.Uint32(b.Data[i*4:])
}

// PutU32 writes the 32-bit element at index i.
func (b *Buffer) PutU32(i int64, v uint32) {
	binary.LittleEndian.PutUint32(b.Data[i*4:], v)
}

// Arena hands out non-overlapping virtual address ranges and tracks
// capacity consumption per space. It corresponds to the union of
// cudaMalloc / cudaMallocHost / cudaMallocManaged address ranges.
type Arena struct {
	nextVA  uint64
	buffers []*Buffer

	GPUCapacity  int64 // HBM bytes available for explicit SpaceGPU buffers
	HostCapacity int64 // host DRAM bytes for pinned + UVM backing
	CXLCapacity  int64 // external CXL-tier bytes (0 = no tier unless attached)

	gpuUsed  int64
	hostUsed int64
	cxlUsed  int64

	// cxlTier, when non-nil, is the attached external tier descriptor: its
	// link and memory models price every access to SpaceCXL-homed data.
	cxlTier *Tier

	// allocFault, when non-nil, is consulted before every allocation; a
	// non-nil return fails the allocation with that error. Used by the
	// fault-injection layer to simulate device memory pressure. Nil (the
	// default) costs one pointer check per Alloc.
	allocFault func(space Space, size int64) error
}

// AllocOption adjusts allocation placement.
type AllocOption func(*allocConfig)

type allocConfig struct {
	baseOffset uint64
	elem       int
	homes      []Space
}

// WithBaseOffset shifts the buffer base by the given bytes after alignment.
// Used by misalignment experiments to emulate data that does not start on a
// 128-byte boundary.
func WithBaseOffset(off uint64) AllocOption {
	return func(c *allocConfig) { c.baseOffset = off }
}

// WithElem records the element width metadata (4 or 8 bytes).
func WithElem(elem int) AllocOption {
	return func(c *allocConfig) { c.elem = elem }
}

// WithSegmentHomes places each SegmentBytes-sized segment of the buffer on
// its own tier at allocation time (SpaceHostPinned or SpaceCXL per entry).
// len(homes) must equal the buffer's segment count and the buffer's Space
// must be SpaceHostPinned or SpaceUVM; capacity is charged per segment, so a
// buffer larger than host DRAM can spill its tail to a CXL-class tier.
func WithSegmentHomes(homes []Space) AllocOption {
	return func(c *allocConfig) { c.homes = homes }
}

// SetAllocFaultHook installs (or, with nil, removes) a hook consulted
// before every allocation; a non-nil return from the hook fails the
// allocation with that error without touching capacity accounting. The
// arena is not goroutine-safe, so the hook is called under whatever
// serialization the caller already provides (the device run mutex).
func (a *Arena) SetAllocFaultHook(hook func(space Space, size int64) error) {
	a.allocFault = hook
}

// ErrOutOfMemory is returned when an allocation exceeds the space capacity.
type ErrOutOfMemory struct {
	Space     Space
	Requested int64
	Used      int64
	Capacity  int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("memsys: out of %s memory: requested %d bytes, %d/%d used",
		e.Space, e.Requested, e.Used, e.Capacity)
}

// charge accounts size bytes against the capacity backing space, failing
// with ErrOutOfMemory when it would overflow.
func (a *Arena) charge(space Space, size int64) error {
	switch space {
	case SpaceGPU:
		if a.GPUCapacity > 0 && a.gpuUsed+size > a.GPUCapacity {
			return &ErrOutOfMemory{Space: space, Requested: size, Used: a.gpuUsed, Capacity: a.GPUCapacity}
		}
		a.gpuUsed += size
	case SpaceHostPinned, SpaceUVM:
		if a.HostCapacity > 0 && a.hostUsed+size > a.HostCapacity {
			return &ErrOutOfMemory{Space: space, Requested: size, Used: a.hostUsed, Capacity: a.HostCapacity}
		}
		a.hostUsed += size
	case SpaceCXL:
		if a.cxlTier == nil {
			return fmt.Errorf("memsys: no CXL tier attached to this arena")
		}
		if a.CXLCapacity > 0 && a.cxlUsed+size > a.CXLCapacity {
			return &ErrOutOfMemory{Space: space, Requested: size, Used: a.cxlUsed, Capacity: a.CXLCapacity}
		}
		a.cxlUsed += size
	default:
		return fmt.Errorf("memsys: unknown space %d", space)
	}
	return nil
}

// uncharge releases size bytes from the capacity backing space.
func (a *Arena) uncharge(space Space, size int64) {
	switch space {
	case SpaceGPU:
		a.gpuUsed -= size
	case SpaceHostPinned, SpaceUVM:
		a.hostUsed -= size
	case SpaceCXL:
		a.cxlUsed -= size
	}
}

// Alloc creates a buffer of the given size in the given space.
func (a *Arena) Alloc(name string, space Space, size int64, opts ...AllocOption) (*Buffer, error) {
	if size < 0 {
		return nil, fmt.Errorf("memsys: negative allocation size %d", size)
	}
	cfg := allocConfig{elem: 8}
	for _, o := range opts {
		o(&cfg)
	}
	if a.allocFault != nil {
		if err := a.allocFault(space, size); err != nil {
			return nil, err
		}
	}
	var segHome []Space
	if cfg.homes != nil {
		nseg := int((size + SegmentBytes - 1) / SegmentBytes)
		if space != SpaceHostPinned && space != SpaceUVM {
			return nil, fmt.Errorf("memsys: WithSegmentHomes requires a %s or %s buffer, got %s", SpaceHostPinned, SpaceUVM, space)
		}
		if len(cfg.homes) != nseg {
			return nil, fmt.Errorf("memsys: WithSegmentHomes got %d homes for %d segments", len(cfg.homes), nseg)
		}
		// Charge each segment to its own tier, rolling back the partial
		// charges if any tier runs out.
		for i, home := range cfg.homes {
			if home != SpaceHostPinned && home != SpaceCXL {
				err := fmt.Errorf("memsys: segment home must be %s or %s, got %s", SpaceHostPinned, SpaceCXL, home)
				for j := 0; j < i; j++ {
					a.uncharge(cfg.homes[j], segLen(size, j))
				}
				return nil, err
			}
			if err := a.charge(home, segLen(size, i)); err != nil {
				for j := 0; j < i; j++ {
					a.uncharge(cfg.homes[j], segLen(size, j))
				}
				return nil, err
			}
		}
		segHome = append([]Space(nil), cfg.homes...)
	} else if err := a.charge(space, size); err != nil {
		return nil, err
	}

	base := (a.nextVA+PageBytes-1)&^(PageBytes-1) + cfg.baseOffset
	b := &Buffer{
		Name:    name,
		Space:   space,
		Base:    base,
		Data:    alignedBytes(size),
		Elem:    cfg.elem,
		segHome: segHome,
	}

	a.nextVA = base + uint64(size)
	a.buffers = append(a.buffers, b)
	return b, nil
}

// MustAlloc is Alloc that panics on failure; used where capacity is known
// to suffice (test setup, fixed-size metadata buffers).
func (a *Arena) MustAlloc(name string, space Space, size int64, opts ...AllocOption) *Buffer {
	b, err := a.Alloc(name, space, size, opts...)
	if err != nil {
		panic(err)
	}
	return b
}

// Free releases a buffer's capacity accounting. The buffer must have come
// from this arena. Virtual addresses are not recycled (monotone allocator),
// which keeps traces unambiguous.
func (a *Arena) Free(b *Buffer) {
	for i, x := range a.buffers {
		if x == b {
			a.buffers = append(a.buffers[:i], a.buffers[i+1:]...)
			if b.segHome != nil {
				// Segment homes may have diverged from the base space
				// (spill placement, request-level re-homing): release each
				// segment against the capacity it is currently charged to.
				for s := 0; s < b.Segments(); s++ {
					a.uncharge(b.SegmentHome(s), b.segmentBytes(s))
				}
			} else {
				a.uncharge(b.Space, b.Size())
			}
			return
		}
	}
	panic("memsys: Free of buffer not owned by arena")
}

// AttachCXLTier attaches an external CXL-class tier to the arena: SpaceCXL
// homes become allocatable against its capacity, and its link/memory models
// price accesses to data homed there. Attaching nil detaches the tier.
func (a *Arena) AttachCXLTier(t *Tier) {
	a.cxlTier = t
	if t != nil {
		a.CXLCapacity = t.CapacityBytes
	} else {
		a.CXLCapacity = 0
	}
}

// CXLTier returns the attached external tier descriptor, or nil.
func (a *Arena) CXLTier() *Tier { return a.cxlTier }

// SetSegmentHome re-homes segment seg of b to the given tier space, moving
// its capacity accounting: the segment's bytes are released from the old
// home's pool and charged to the new one (failing with ErrOutOfMemory when
// the destination is full, leaving accounting unchanged). The buffer's
// backing bytes do not move — homes describe where data physically lives in
// the simulated hierarchy; the transfer cost of moving it is charged by the
// caller (gpu.Device bulk copies).
func (a *Arena) SetSegmentHome(b *Buffer, seg int, home Space) error {
	if seg < 0 || seg >= b.Segments() {
		return fmt.Errorf("memsys: segment %d out of range for buffer %q (%d segments)",
			seg, b.Name, b.Segments())
	}
	if home != SpaceHostPinned && home != SpaceCXL {
		return fmt.Errorf("memsys: segment home must be a host-side tier space, got %s", home)
	}
	old := b.SegmentHome(seg)
	if old == home {
		return nil
	}
	n := b.segmentBytes(seg)
	if err := a.charge(home, n); err != nil {
		return err
	}
	a.uncharge(old, n)
	if b.segHome == nil {
		// Read every segment's current home before installing the slice:
		// HomeAt consults segHome once it is non-nil.
		homes := make([]Space, b.Segments())
		for i := range homes {
			homes[i] = b.HomeAt(int64(i) * SegmentBytes)
		}
		b.segHome = homes
	}
	b.segHome[seg] = home
	return nil
}

// GPUUsed returns the bytes currently allocated in GPU space.
func (a *Arena) GPUUsed() int64 { return a.gpuUsed }

// CXLUsed returns the bytes currently homed in the external CXL tier.
func (a *Arena) CXLUsed() int64 { return a.cxlUsed }

// GPUFree returns the remaining explicit-allocation HBM capacity, or -1 if
// the arena is uncapped.
func (a *Arena) GPUFree() int64 {
	if a.GPUCapacity <= 0 {
		return -1
	}
	return a.GPUCapacity - a.gpuUsed
}

// HostFree returns the remaining host-DRAM capacity, or -1 if the arena is
// uncapped.
func (a *Arena) HostFree() int64 {
	if a.HostCapacity <= 0 {
		return -1
	}
	return a.HostCapacity - a.hostUsed
}
