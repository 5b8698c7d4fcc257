package memsys

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/pcie"
)

// newTestArena builds a two-tier arena with the given capacities in bytes;
// a zero capacity means unlimited.
func newTestArena(gpuCapacity, hostCapacity int64) *Arena {
	a, err := NewTieredArena(TwoTier(gpuCapacity, hostCapacity, HBM2V100(), DDR4Quad(), pcie.Gen3x16()))
	if err != nil {
		panic(err)
	}
	return a
}

func TestSpaceString(t *testing.T) {
	cases := map[Space]string{
		SpaceGPU:        "gpu",
		SpaceHostPinned: "zerocopy",
		SpaceUVM:        "uvm",
		Space(9):        "space(9)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("Space(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestArenaAllocBasics(t *testing.T) {
	a := newTestArena(1<<20, 1<<20)
	b, err := a.Alloc("edges", SpaceHostPinned, 1000)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if b.Size() != 1000 {
		t.Errorf("Size = %d, want 1000", b.Size())
	}
	if b.Base%PageBytes != 0 {
		t.Errorf("default base not page-aligned: %#x", b.Base)
	}
	if b.Space != SpaceHostPinned {
		t.Errorf("Space = %v", b.Space)
	}
	if a.hostUsed != 1000 {
		t.Errorf("HostUsed = %d, want 1000", a.hostUsed)
	}
	if a.GPUUsed() != 0 {
		t.Errorf("GPUUsed = %d, want 0", a.GPUUsed())
	}
}

func TestArenaNonOverlapping(t *testing.T) {
	a := newTestArena(0, 0)
	var prevEnd uint64
	for i := 0; i < 20; i++ {
		b, err := a.Alloc("b", SpaceGPU, 777)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if b.Base < prevEnd {
			t.Fatalf("allocation %d overlaps previous: base=%#x prevEnd=%#x", i, b.Base, prevEnd)
		}
		prevEnd = b.Base + uint64(b.Size())
	}
}

func TestArenaCapacityEnforced(t *testing.T) {
	a := newTestArena(100, 200)
	if _, err := a.Alloc("big", SpaceGPU, 101); err == nil {
		t.Fatalf("expected GPU OOM")
	} else {
		var oom *ErrOutOfMemory
		if !errors.As(err, &oom) {
			t.Fatalf("error type = %T, want *ErrOutOfMemory", err)
		}
		if oom.Space != SpaceGPU || oom.Requested != 101 {
			t.Errorf("OOM fields wrong: %+v", oom)
		}
	}
	if _, err := a.Alloc("ok", SpaceGPU, 100); err != nil {
		t.Fatalf("allocation at capacity should succeed: %v", err)
	}
	if _, err := a.Alloc("more", SpaceGPU, 1); err == nil {
		t.Fatalf("expected OOM after exhausting capacity")
	}
	// Host capacity covers pinned and UVM jointly.
	if _, err := a.Alloc("h1", SpaceHostPinned, 150); err != nil {
		t.Fatalf("host alloc: %v", err)
	}
	if _, err := a.Alloc("h2", SpaceUVM, 51); err == nil {
		t.Fatalf("expected host OOM for UVM share")
	}
}

func TestArenaZeroCapacityUnlimited(t *testing.T) {
	a := newTestArena(0, 0)
	if _, err := a.Alloc("huge", SpaceGPU, 1<<30); err != nil {
		t.Fatalf("uncapped arena refused allocation: %v", err)
	}
	if a.GPUFree() != -1 {
		t.Errorf("GPUFree on uncapped arena = %d, want -1", a.GPUFree())
	}
}

func TestArenaFree(t *testing.T) {
	a := newTestArena(100, 0)
	b := a.MustAlloc("x", SpaceGPU, 60)
	if _, err := a.Alloc("y", SpaceGPU, 60); err == nil {
		t.Fatalf("expected OOM before free")
	}
	a.Free(b)
	if a.GPUUsed() != 0 {
		t.Errorf("GPUUsed after free = %d", a.GPUUsed())
	}
	if _, err := a.Alloc("y", SpaceGPU, 60); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestArenaFreeForeignPanics(t *testing.T) {
	a := newTestArena(0, 0)
	b := &Buffer{Name: "foreign"}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic freeing foreign buffer")
		}
	}()
	a.Free(b)
}

func TestAllocOptions(t *testing.T) {
	a := newTestArena(0, 0)
	b, err := a.Alloc("aligned", SpaceHostPinned, 64, WithBaseOffset(32), WithElem(4))
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if b.Base%128 != 32 {
		t.Errorf("base offset not applied: %#x", b.Base)
	}
	if b.Elem != 4 {
		t.Errorf("Elem = %d, want 4", b.Elem)
	}

	if _, err := a.Alloc("neg", SpaceGPU, -1); err == nil {
		t.Errorf("expected error for negative size")
	}
	if _, err := a.Alloc("weird", Space(42), 8); err == nil {
		t.Errorf("expected error for unknown space")
	}
}

func TestBufferTypedAccessors(t *testing.T) {
	a := newTestArena(0, 0)
	b := a.MustAlloc("t", SpaceGPU, 64)
	b.PutU64(2, 0xdeadbeefcafe)
	if got := b.U64(2); got != 0xdeadbeefcafe {
		t.Errorf("U64 = %#x", got)
	}
	b.PutU32(5, 0x1234)
	if got := b.U32(5); got != 0x1234 {
		t.Errorf("U32 = %#x", got)
	}
}

func TestBufferPages(t *testing.T) {
	a := newTestArena(0, 0)
	cases := []struct {
		size int64
		want int
	}{
		{0, 0},
		{1, 1},
		{4096, 1},
		{4097, 2},
		{3 * 4096, 3},
	}
	for _, tc := range cases {
		b := a.MustAlloc("p", SpaceUVM, tc.size)
		if got := b.Pages(); got != tc.want {
			t.Errorf("Pages(size=%d) = %d, want %d", tc.size, got, tc.want)
		}
	}
}

// TestBufferRoute pins the table router: it takes precedence over a UVM
// buffer's static space, reads entries rewritten in place,
// resolves offsets below zero to the first entry, and at the weights' shift
// reproduces the edge mapping off/4*edgeBytes for 4- and 8-byte edges.
func TestBufferRoute(t *testing.T) {
	a := newTestArena(0, 0)
	b := a.MustAlloc("edges", SpaceUVM, 4*SegmentBytes, WithBaseOffset(8))
	route := []Space{SpaceGPU, SpaceHostPinned, SpaceUVM, SpaceCXL}
	b.SetRoute(route, SegmentShift)
	if _, uniform := b.UniformSpace(); uniform {
		t.Error("UniformSpace reports true with a router installed")
	}
	for _, off := range []int64{-31, -8, -1, 0, SegmentBytes - 1} {
		if got := b.SpaceAt(off); got != SpaceGPU {
			t.Errorf("SpaceAt(%d) = %v, want entry 0", off, got)
		}
	}
	if got := b.SpaceAt(3*SegmentBytes + 5); got != SpaceCXL {
		t.Errorf("SpaceAt(segment 3) = %v, want cxl", got)
	}
	route[3] = SpaceGPU
	if got := b.SpaceAt(3 * SegmentBytes); got != SpaceGPU {
		t.Errorf("SpaceAt after rewrite = %v, want gpu", got)
	}
	route[3] = SpaceCXL
	for _, edgeBytes := range []int64{4, 8} {
		shift := uint(SegmentShift)
		if edgeBytes == 8 {
			shift--
		}
		w := a.MustAlloc("weights", SpaceHostPinned, 4*SegmentBytes*4/edgeBytes)
		w.SetRoute(route, shift)
		for off := int64(-31); off < w.Size(); off += 4 {
			want := route[max(off/4*edgeBytes, 0)/SegmentBytes]
			if got := w.SpaceAt(off); got != want {
				t.Fatalf("edgeBytes %d: weights SpaceAt(%d) = %v, want %v", edgeBytes, off, got, want)
			}
		}
		a.Free(w)
	}
	b.SetRoute(nil, 0)
	if sp, uniform := b.UniformSpace(); !uniform || sp != SpaceUVM || b.SpaceAt(3*SegmentBytes) != SpaceUVM {
		t.Errorf("after SetRoute(nil): UniformSpace = %v, %v", sp, uniform)
	}
}

func TestDRAMServedBytes(t *testing.T) {
	d := DDR4Quad()
	cases := []struct {
		req  int
		want int64
	}{
		{0, 0},
		{-5, 0},
		{1, 64},
		{32, 64}, // the paper's §3.3 point: 32B request = 64B burst
		{64, 64},
		{96, 128},
		{128, 128},
		{4096, 4096},
	}
	for _, tc := range cases {
		if got := d.ServedBytes(tc.req); got != tc.want {
			t.Errorf("ServedBytes(%d) = %d, want %d", tc.req, got, tc.want)
		}
	}
	hbm := HBM2V100()
	if got := hbm.ServedBytes(32); got != 32 {
		t.Errorf("HBM ServedBytes(32) = %d, want 32", got)
	}
}

func TestDRAMServiceSeconds(t *testing.T) {
	d := DRAMModel{BytesPerSec: 100, MinAccessBytes: 1}
	if got := d.ServiceSeconds(200); got != 2.0 {
		t.Errorf("ServiceSeconds = %v, want 2", got)
	}
	if got := d.ServiceSeconds(0); got != 0 {
		t.Errorf("ServiceSeconds(0) = %v, want 0", got)
	}
	var zero DRAMModel
	if got := zero.ServiceSeconds(100); got != 0 {
		t.Errorf("zero-bandwidth model should return 0, got %v", got)
	}
}

// Property: ServedBytes is monotone in request size, always >= request size,
// and always a multiple of the minimum access size.
func TestDRAMServedBytesProperty(t *testing.T) {
	d := DDR4Quad()
	f := func(req uint16) bool {
		r := int(req)
		got := d.ServedBytes(r)
		if r == 0 {
			return got == 0
		}
		return got >= int64(r) &&
			got%int64(d.MinAccessBytes) == 0 &&
			got-int64(r) < int64(d.MinAccessBytes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: allocations never overlap and never violate alignment.
func TestArenaAllocProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := newTestArena(0, 0)
		type rng struct{ lo, hi uint64 }
		var ranges []rng
		for _, s := range sizes {
			b, err := a.Alloc("p", SpaceGPU, int64(s))
			if err != nil {
				return false
			}
			if b.Base%PageBytes != 0 {
				return false
			}
			lo, hi := b.Base, b.Base+uint64(s)
			for _, r := range ranges {
				if lo < r.hi && r.lo < hi {
					return false
				}
			}
			ranges = append(ranges, rng{lo, hi})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDRAMModelPresets(t *testing.T) {
	// Every preset must be internally consistent: positive bandwidth and a
	// power-of-two minimum burst no larger than a cache line.
	for _, d := range []DRAMModel{DDR4Quad(), HBM2V100(), HBM2eA100(), GDDR5XTitanXp()} {
		if d.BytesPerSec <= 0 {
			t.Errorf("%s: non-positive bandwidth", d.Name)
		}
		if d.MinAccessBytes <= 0 || d.MinAccessBytes > CacheLineBytes ||
			d.MinAccessBytes&(d.MinAccessBytes-1) != 0 {
			t.Errorf("%s: bad min access %d", d.Name, d.MinAccessBytes)
		}
	}
	// Relative ordering of the devices the paper uses.
	if HBM2eA100().BytesPerSec <= HBM2V100().BytesPerSec {
		t.Errorf("A100 HBM2e should outrun V100 HBM2")
	}

}

func TestErrOutOfMemoryMessage(t *testing.T) {
	err := &ErrOutOfMemory{Space: SpaceGPU, Requested: 100, Used: 50, Capacity: 120}
	msg := err.Error()
	for _, want := range []string{"gpu", "100", "50", "120"} {
		if !strings.Contains(msg, want) {
			t.Errorf("OOM message %q missing %q", msg, want)
		}
	}
}

func TestMustAllocPanicsOnOOM(t *testing.T) {
	a := newTestArena(16, 0)
	defer func() {
		if recover() == nil {
			t.Errorf("MustAlloc should panic on OOM")
		}
	}()
	a.MustAlloc("big", SpaceGPU, 1024)
}

func TestGPUFreeAndBuffers(t *testing.T) {
	a := newTestArena(1000, 0)
	if got := a.GPUFree(); got != 1000 {
		t.Errorf("GPUFree = %d, want 1000", got)
	}
	b := a.MustAlloc("x", SpaceGPU, 400)
	if got := a.GPUFree(); got != 600 {
		t.Errorf("GPUFree = %d, want 600", got)
	}
	bufs := a.buffers

	if len(bufs) != 1 || bufs[0] != b {
		t.Errorf("Buffers = %v", bufs)
	}
	// Freeing host-space buffers adjusts host accounting.
	h := a.MustAlloc("h", SpaceHostPinned, 64)
	a.Free(h)
	if a.hostUsed != 0 {
		t.Errorf("HostUsed after free = %d", a.hostUsed)
	}
}
