package gpu

import (
	"testing"

	"repro/internal/memsys"
	"repro/internal/pcie"
)

// testDevice returns an uncapped device on a Gen3 link for traffic tests.
func testDevice() *Device {
	return NewDevice(Config{
		Name:  "test",
		Tiers: memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
}

func TestMaskHelpers(t *testing.T) {
	if MaskFirstN(0) != MaskNone {
		t.Errorf("MaskFirstN(0) != MaskNone")
	}
	if MaskFirstN(32) != MaskFull || MaskFirstN(99) != MaskFull {
		t.Errorf("MaskFirstN clamping broken")
	}
	m := MaskFirstN(3)
	if !m.Has(0) || !m.Has(2) || m.Has(3) {
		t.Errorf("MaskFirstN(3) = %#x", m)
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d, want 3", m.Count())
	}
	m = m.Set(10)
	if !m.Has(10) || m.Count() != 4 {
		t.Errorf("Set failed: %#x", m)
	}

	if MaskFull.Count() != 32 {
		t.Errorf("MaskFull.Count() = %d", MaskFull.Count())
	}
}

// TestCoalesceMergedAligned reproduces Figure 3(b): a warp reading 32
// consecutive 4-byte elements starting on a 128B boundary issues exactly
// one 128-byte request.
func TestCoalesceMergedAligned(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		for i := range idx {
			idx[i] = int64(i)
		}
		w.GatherU32(buf, &idx, MaskFull)
	})
	snap := d.Monitor().Snapshot()
	if snap.Requests != 1 {
		t.Fatalf("requests = %d, want 1 (%s)", snap.Requests, snap)
	}
	if snap.BySize[128] != 1 {
		t.Errorf("expected a single 128B request, got %s", snap)
	}
}

// TestCoalesceMerged8Byte: with 8-byte elements a full warp covers 256B and
// issues exactly two 128-byte requests (Listing 2's stride-32 loop body).
func TestCoalesceMerged8Byte(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		for i := range idx {
			idx[i] = int64(i)
		}
		w.GatherU64(buf, &idx, MaskFull)
	})
	snap := d.Monitor().Snapshot()
	if snap.Requests != 2 || snap.BySize[128] != 2 {
		t.Errorf("want two 128B requests, got %s", snap)
	}
}

// TestCoalesceMisaligned reproduces Figure 3(c): a warp reading a 128-byte
// span offset by 32 bytes from the 128B boundary issues a 96B and a 32B
// request.
func TestCoalesceMisaligned(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		for i := range idx {
			idx[i] = int64(i) + 8 // 8 x 4B = 32B offset
		}
		w.GatherU32(buf, &idx, MaskFull)
	})
	snap := d.Monitor().Snapshot()
	if snap.Requests != 2 {
		t.Fatalf("requests = %d, want 2 (%s)", snap.Requests, snap)
	}
	if snap.BySize[96] != 1 || snap.BySize[32] != 1 {
		t.Errorf("want one 96B and one 32B request, got %s", snap)
	}
}

// TestCoalesceStrided reproduces Figure 3(a): each lane reading a different
// 128-byte block issues 32 separate 32-byte requests.
func TestCoalesceStrided(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 128*WarpSize)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		for i := range idx {
			idx[i] = int64(i) * 32 // lane i at byte 128*i (4B elements)
		}
		w.GatherU32(buf, &idx, MaskFull)
	})
	snap := d.Monitor().Snapshot()
	if snap.Requests != 32 || snap.BySize[32] != 32 {
		t.Errorf("want 32 x 32B requests, got %s", snap)
	}
}

// TestMRUSectorReuse: a lane iterating sequentially issues one 32B request
// per sector (4 x 8B elements), not one per element — §3.3's description of
// the strided pattern.
func TestMRUSectorReuse(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		for e := 0; e < 16; e++ { // 16 sequential 8B elements = 4 sectors
			idx[0] = int64(e)
			w.GatherU64(buf, &idx, MaskFirstN(1))
		}
	})
	snap := d.Monitor().Snapshot()
	if snap.Requests != 4 || snap.BySize[32] != 4 {
		t.Errorf("sequential lane should issue 4 x 32B requests, got %s", snap)
	}
}

func TestMRUInvalidation(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		w.GatherU64(buf, &idx, MaskFirstN(1))
		w.GatherU64(buf, &idx, MaskFirstN(1)) // MRU hit
		w.InvalidateMRU()
		w.GatherU64(buf, &idx, MaskFirstN(1)) // re-issues
	})
	if got := d.Monitor().Requests(); got != 2 {
		t.Errorf("requests = %d, want 2", got)
	}
}

// TestMRUResetsPerWarp: the MRU is per-warp state; a new warp re-issues.
func TestMRUResetsPerWarp(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 2, func(w *Warp) {
		var idx [WarpSize]int64
		w.GatherU64(buf, &idx, MaskFirstN(1))
	})
	if got := d.Monitor().Requests(); got != 2 {
		t.Errorf("requests = %d, want 2 (one per warp)", got)
	}
}

// TestWritesBypassMRU: stores always issue requests.
func TestWritesBypassMRU(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		var val [WarpSize]uint32
		w.ScatterU32(buf, &idx, &val, MaskFirstN(1))
		w.ScatterU32(buf, &idx, &val, MaskFirstN(1))
	})
	if got := d.Monitor().Requests(); got != 2 {
		t.Errorf("requests = %d, want 2 (writes bypass MRU)", got)
	}
}

// TestCoalesceNonContiguousSectors: lanes touching sectors 0 and 2 of one
// line produce two requests (a PCIe read must be a contiguous range).
func TestCoalesceNonContiguousSectors(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		idx[0] = 0 // sector 0
		idx[1] = 8 // sector 2 (64B / 8B elements)
		w.GatherU64(buf, &idx, MaskFirstN(2))
	})
	snap := d.Monitor().Snapshot()
	if snap.Requests != 2 || snap.BySize[32] != 2 {
		t.Errorf("want 2 x 32B requests for a gap, got %s", snap)
	}
}

// TestCoalesceDuplicateAddrs: all lanes reading the same element merge into
// a single 32B request (broadcast).
func TestCoalesceDuplicateAddrs(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64 // all zero
		w.GatherU64(buf, &idx, MaskFull)
	})
	snap := d.Monitor().Snapshot()
	if snap.Requests != 1 || snap.BySize[32] != 1 {
		t.Errorf("broadcast should merge to one 32B request, got %s", snap)
	}
}

func TestGatherDataCorrectness(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	for i := int64(0); i < 512; i++ {
		buf.PutU64(i, uint64(i*3))
	}
	var got [WarpSize]uint64
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		for i := range idx {
			idx[i] = int64(i * 7 % 512)
		}
		got = w.GatherU64(buf, &idx, MaskFull)
	})
	for i := 0; i < WarpSize; i++ {
		want := uint64((i * 7 % 512) * 3)
		if got[i] != want {
			t.Errorf("lane %d: got %d, want %d", i, got[i], want)
		}
	}
}

func TestInactiveLanesUntouched(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	buf.PutU64(0, 42)
	var got [WarpSize]uint64
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		got = w.GatherU64(buf, &idx, MaskFirstN(1))
	})
	if got[0] != 42 {
		t.Errorf("active lane value = %d, want 42", got[0])
	}
	if got[5] != 0 {
		t.Errorf("inactive lane should stay zero, got %d", got[5])
	}
	if d.Monitor().Requests() != 1 {
		t.Errorf("requests = %d, want 1", d.Monitor().Requests())
	}
}

func TestEmptyMaskNoTraffic(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		w.GatherU64(buf, &idx, MaskNone)
	})
	if d.Monitor().Requests() != 0 {
		t.Errorf("empty mask should produce no traffic")
	}
}

func TestScalarAndPair(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	buf.PutU64(10, 100)
	buf.PutU64(11, 110)
	d.Launch("k", 1, func(w *Warp) {
		if got := w.ScalarU64(buf, 10); got != 100 {
			t.Errorf("ScalarU64 = %d, want 100", got)
		}
		w.InvalidateMRU()
		a, b := w.PairU64(buf, 10)
		if a != 100 || b != 110 {
			t.Errorf("PairU64 = %d,%d want 100,110", a, b)
		}
	})
	// idx 10,11 * 8B = bytes 80..96: same sector for scalar; pair spans
	// sectors 2 and 3 of the line -> contiguous -> one request each call.
	if got := d.Monitor().Requests(); got != 2 {
		t.Errorf("requests = %d, want 2", got)
	}
}

func TestStoreScalarU32(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("g", memsys.SpaceGPU, 64)
	d.Launch("k", 1, func(w *Warp) {
		w.StoreScalarU32(buf, 3, 77)
	})
	if got := buf.U32(3); got != 77 {
		t.Errorf("stored value = %d, want 77", got)
	}
}

// TestRelaxMinU32 pins the mask-returning atomicMin: lanes apply in
// ascending order, and a lane wins exactly when its value was below the
// word it met — CUDA's `atomicMin(&a[i], v) > v`.
func TestRelaxMinU32(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("labels", memsys.SpaceGPU, 256)
	for i := int64(0); i < 64; i++ {
		buf.PutU32(i, 100)
	}
	var won Mask
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		var val [WarpSize]uint32
		// Lanes 0 and 1 race on index 5 with values 50 and 60.
		idx[0], val[0] = 5, 50
		idx[1], val[1] = 5, 60
		idx[2], val[2] = 6, 120 // loses to existing 100
		idx[3], val[3] = 7, 100 // ties the existing 100: no improvement
		idx[4], val[4] = 8, 0   // inactive lane: neither written nor won
		won = w.RelaxMinU32(buf, &idx, &val, MaskFirstN(4))
	})
	if buf.U32(5) != 50 {
		t.Errorf("buf[5] = %d, want 50", buf.U32(5))
	}
	if buf.U32(6) != 100 {
		t.Errorf("buf[6] = %d, want 100 (atomicMin must not raise)", buf.U32(6))
	}
	if buf.U32(8) != 100 {
		t.Errorf("buf[8] = %d, want 100 (inactive lane wrote)", buf.U32(8))
	}
	// Lane 0 lowered 100 to 50; lane 1 met 50 (serialized after lane 0).
	if won != 1 {
		t.Errorf("won = %#b, want 0b1", won)
	}
}
