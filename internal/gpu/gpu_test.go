package gpu

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/pcie"
)

func TestDeviceDefaults(t *testing.T) {
	d := NewDevice(Config{Tiers: memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16())})
	cfg := d.Config()
	if cfg.LaunchOverhead == 0 || cfg.CopyOverhead == 0 || cfg.WarpInstrPerSec == 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestLaunchAdvancesClock(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	before := d.Clock()
	ks := d.Launch("k", 4, func(w *Warp) {
		var idx [WarpSize]int64
		for i := range idx {
			idx[i] = int64(i)
		}
		w.GatherU32(buf, &idx, MaskFull)
	})
	if d.Clock() <= before {
		t.Errorf("clock did not advance")
	}
	if ks.Elapsed < d.Config().LaunchOverhead {
		t.Errorf("elapsed %v below launch overhead", ks.Elapsed)
	}
	if ks.Warps != 4 {
		t.Errorf("Warps = %d, want 4", ks.Warps)
	}
	if got := d.Total(); got.Warps != 4 || got.Elapsed != ks.Elapsed {
		t.Errorf("device total = %+v, want exactly the one launch", got)
	}
}

func TestLaunchNegativeWarpsPanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	d.Launch("bad", -1, func(w *Warp) {})
}

// TestRooflineZeroCopyBandwidth: a long stream of aligned 128B zero-copy
// requests should achieve ~12.3 GB/s of simulated bandwidth (the calibrated
// memcpy peak), demonstrating the paper's central claim that merged+aligned
// zero-copy saturates PCIe.
func TestRooflineZeroCopyBandwidth(t *testing.T) {
	d := testDevice()
	const elems = 1 << 18 // 2MB of 8B elements
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, elems*8)
	ks := d.Launch("stream", elems/(WarpSize*8), func(w *Warp) {
		base := int64(w.ID()) * WarpSize * 8
		var idx [WarpSize]int64
		for it := 0; it < 8; it++ {
			for i := range idx {
				idx[i] = base + int64(it*WarpSize+i)
			}
			w.GatherU64(buf, &idx, MaskFull)
		}
	})
	dataTime := ks.Elapsed - d.Config().LaunchOverhead
	bw := float64(ks.PCIePayloadBytes) / dataTime.Seconds()
	if math.Abs(bw/1e9-12.3) > 0.5 {
		t.Errorf("streaming bandwidth = %.2f GB/s, want ~12.3", bw/1e9)
	}
}

// TestRooflineStridedBandwidth: 32B-request streams should be tag-limited
// to ~4.75 GB/s (Figure 4a).
func TestRooflineStridedBandwidth(t *testing.T) {
	d := testDevice()
	const lines = 1 << 14
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, lines*128)
	ks := d.Launch("strided", lines/WarpSize, func(w *Warp) {
		var idx [WarpSize]int64
		for s := 0; s < 4; s++ { // four sectors per 128B line
			for i := range idx {
				// lane i strides over its own 128B block, sector s
				idx[i] = int64(w.ID()*WarpSize+i)*16 + int64(s*4)
			}
			w.GatherU64(buf, &idx, MaskFull)
		}
	})
	dataTime := ks.Elapsed - d.Config().LaunchOverhead
	bw := float64(ks.PCIePayloadBytes) / dataTime.Seconds()
	if math.Abs(bw/1e9-4.75) > 0.3 {
		t.Errorf("strided bandwidth = %.2f GB/s, want ~4.75", bw/1e9)
	}
	// DRAM side sees 2x the payload (64B min burst for 32B requests).
	if got := float64(ks.HostDRAMBytes) / float64(ks.PCIePayloadBytes); math.Abs(got-2.0) > 0.01 {
		t.Errorf("DRAM amplification = %.2f, want 2.0", got)
	}
}

// TestUVMAccess: touching a UVM buffer migrates pages once, then serves
// from HBM.
func TestUVMAccess(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("uvm", memsys.SpaceUVM, 2*memsys.PageBytes)
	ks := d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		for i := range idx {
			idx[i] = int64(i)
		}
		w.GatherU64(buf, &idx, MaskFull) // 256B in page 0
		w.GatherU64(buf, &idx, MaskFull) // MRU... invalidate to re-access
		w.InvalidateMRU()
		w.GatherU64(buf, &idx, MaskFull) // resident now
	})
	// The 2-page buffer is migrated as one clipped prefetch block on
	// first touch (driver block prefetching).
	if ks.UVMMigrations != 2 {
		t.Errorf("migrations = %d, want 2", ks.UVMMigrations)
	}
	if ks.UVMHits == 0 {
		t.Errorf("expected UVM hits on resident page")
	}
	if ks.PCIePayloadBytes != 2*memsys.PageBytes {
		t.Errorf("PCIe payload = %d, want both pages (%d)", ks.PCIePayloadBytes, 2*memsys.PageBytes)
	}
	if ks.UVMSerialSeconds <= 0 {
		t.Errorf("UVM CPU time not accounted")
	}
}

// TestUVMHitsCountResidentPages: UVMHits counts touched pages that were
// already resident, never pages the prefetch block migrated — a cold
// 32-byte read that migrates a whole block scores no hit.
func TestUVMHitsCountResidentPages(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("uvm", memsys.SpaceUVM, 4*memsys.PageBytes)
	read := func(w *Warp) { w.ScalarU32(buf, 0) }
	cold := d.Launch("cold", 1, read)
	if cold.UVMMigrations == 0 || cold.UVMHits != 0 {
		t.Errorf("cold read: migrations %d hits %d, want >0 and 0", cold.UVMMigrations, cold.UVMHits)
	}
	warm := d.Launch("warm", 1, read)
	if warm.UVMMigrations != 0 || warm.UVMHits != 1 {
		t.Errorf("repeat read: migrations %d hits %d, want 0 and 1", warm.UVMMigrations, warm.UVMHits)
	}
}

// TestUVMReadAmplification: a sparse access pattern (one sector per page)
// moves 4KB per 32B of useful data — the paper's 4KB-page amplification.
func TestUVMReadAmplification(t *testing.T) {
	d := testDevice()
	pages := 64
	buf := d.Arena().MustAlloc("uvm", memsys.SpaceUVM, int64(pages*memsys.PageBytes))
	ks := d.Launch("sparse", pages, func(w *Warp) {
		var idx [WarpSize]int64
		idx[0] = int64(w.ID() * memsys.PageBytes / 8)
		w.GatherU64(buf, &idx, MaskFirstN(1))
	})
	useful := uint64(pages * 32)
	if ks.PCIePayloadBytes != uint64(pages*memsys.PageBytes) {
		t.Errorf("moved %d bytes, want %d", ks.PCIePayloadBytes, pages*memsys.PageBytes)
	}
	amp := float64(ks.PCIePayloadBytes) / float64(useful)
	if amp != 128 {
		t.Errorf("amplification = %v, want 128 (4096/32)", amp)
	}
}

// TestUVMCapacityPages: UVM caching capacity shrinks as explicit GPU
// allocations grow.
func TestUVMCapacityPages(t *testing.T) {
	d := NewDevice(Config{
		Tiers: memsys.TwoTier(64*memsys.PageBytes, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
	if got := d.UVM().Config().CapacityPages; got != 64 {
		t.Errorf("initial capacity = %d pages, want 64", got)
	}
	d.Arena().MustAlloc("v", memsys.SpaceGPU, 16*memsys.PageBytes)
	d.ResetUVMResidency()
	if got := d.UVM().Config().CapacityPages; got != 48 {
		t.Errorf("capacity after alloc = %d pages, want 48", got)
	}
}

func TestCopyToDevice(t *testing.T) {
	d := testDevice()
	before := d.Clock()
	dt := d.CopyToDevice(1 << 20)
	if dt <= d.Config().CopyOverhead {
		t.Errorf("copy time %v should exceed overhead", dt)
	}
	if d.Clock()-before != dt {
		t.Errorf("clock advance mismatch")
	}
	if d.Monitor().PayloadBytes() != 1<<20 {
		t.Errorf("monitor saw %d bytes, want %d", d.Monitor().PayloadBytes(), 1<<20)
	}
	// Bandwidth sanity: 1MB at ~12.3GB/s ≈ 85us + 10us overhead.
	if dt > 120*time.Microsecond {
		t.Errorf("copy too slow: %v", dt)
	}
}

func TestCopyToHostNotMonitored(t *testing.T) {
	// The monitor observes GPU-bound read traffic like the paper's FPGA;
	// result downloads don't pollute request-size histograms.
	d := testDevice()
	d.CopyToHost(4096)
	if d.Monitor().Requests() != 0 {
		t.Errorf("D2H copy should not be recorded by the monitor")
	}
	if d.Clock() == 0 {
		t.Errorf("D2H copy should advance the clock")
	}
}

func TestHostCompute(t *testing.T) {
	d := testDevice()
	d.HostCompute(5 * time.Millisecond)
	if d.Clock() != 5*time.Millisecond {
		t.Errorf("clock = %v, want 5ms", d.Clock())
	}
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on negative host compute")
		}
	}()
	d.HostCompute(-time.Second)
}

func TestResetStats(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096)
	d.Launch("k", 1, func(w *Warp) {
		var idx [WarpSize]int64
		w.GatherU64(buf, &idx, MaskFirstN(1))
	})
	d.ResetStats()
	if d.Clock() != 0 || d.Monitor().Requests() != 0 {
		t.Errorf("ResetStats incomplete")
	}
	if d.Total() != (KernelStats{}) || d.RunStats() != (KernelStats{}) {
		t.Errorf("total or run stats not reset")
	}
	// Allocations survive: Free panics on a buffer the arena does not own.
	d.Arena().Free(buf)

}

func TestKernelStatsAdd(t *testing.T) {
	a := KernelStats{Warps: 1, WarpInstrs: 2, HBMBytes: 3, PCIeRequests: 4,
		PCIePayloadBytes: 5, HostDRAMBytes: 6, UVMMigrations: 7, UVMHits: 8,
		WireSeconds: 1, TagSeconds: 2, UVMSerialSeconds: 3, Elapsed: time.Second}
	b := a
	a.Add(&b)
	if a.Warps != 2 || a.WarpInstrs != 4 || a.HBMBytes != 6 || a.PCIeRequests != 8 ||
		a.PCIePayloadBytes != 10 || a.HostDRAMBytes != 12 || a.UVMMigrations != 14 ||
		a.UVMHits != 16 || a.WireSeconds != 2 || a.TagSeconds != 4 ||
		a.UVMSerialSeconds != 6 || a.Elapsed != 2*time.Second {
		t.Errorf("Add wrong: %+v", a)
	}
}

// Property: for random access patterns, the coalescer's emitted requests
// exactly cover the set of missed sectors — no gaps, no overlap, and all
// request sizes are in {32, 64, 96, 128} with matching alignment.
func TestCoalescerCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		d := testDevice()
		buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 1<<16)
		var idx [WarpSize]int64
		mask := Mask(rng.Uint32())
		for i := range idx {
			idx[i] = rng.Int63n(1 << 13)
		}
		// Expected: distinct sectors across active lanes.
		want := map[uint64]bool{}
		for i := 0; i < WarpSize; i++ {
			if mask.Has(i) {
				want[(buf.Base+uint64(idx[i]*8))>>5] = true
			}
		}
		d.Launch("k", 1, func(w *Warp) {
			w.GatherU64(buf, &idx, mask)
		})
		snap := d.Monitor().Snapshot()
		var covered uint64
		for size, count := range snap.BySize {
			if size%32 != 0 || size < 32 || size > 128 {
				t.Fatalf("trial %d: illegal request size %d", trial, size)
			}
			covered += uint64(size/32) * count
		}
		if covered != uint64(len(want)) {
			t.Fatalf("trial %d: covered %d sectors, want %d (mask=%#x)",
				trial, covered, len(want), mask)
		}
	}
}

// TestRunStatsFromBeginRun: RunStats covers exactly the launches and copies
// since BeginRun, summed from zero, so a run after unrelated earlier work
// reports bit-for-bit what the same run reports on a fresh device —
// roofline floats and the run's own critical-path maxima included.
func TestRunStatsFromBeginRun(t *testing.T) {
	gather := func(d *Device, buf *memsys.Buffer, warps, stride int) {
		d.Launch("k", warps, func(w *Warp) {
			var idx [WarpSize]int64
			for l := range idx {
				idx[l] = int64((w.ID()*WarpSize + l*stride) % 4096)
			}
			w.GatherU64(buf, &idx, MaskFull)
		})
	}
	run := func(d *Device, buf *memsys.Buffer) KernelStats {
		d.BeginRun(RunLabels{App: "test"})
		defer d.EndRun()
		start := d.Clock()
		d.CopyToDevice(4096)
		gather(d, buf, 3, 5)
		d.HostCompute(time.Microsecond)
		st := d.RunStats()
		if st.Elapsed != d.Clock()-start {
			t.Errorf("run Elapsed %v, want the clock's advance %v", st.Elapsed, d.Clock()-start)
		}
		return st
	}

	fresh := testDevice()
	want := run(fresh, fresh.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096*8))

	d := testDevice()
	buf := d.Arena().MustAlloc("zc", memsys.SpaceHostPinned, 4096*8)
	gather(d, buf, 64, 97) // a busier warp than any in the run
	d.CopyToHost(1 << 20)
	run(d, buf)
	if got := run(d, buf); got != want {
		t.Errorf("run stats depend on history:\n got %+v\nwant %+v", got, want)
	}
	if want.MaxWarpHostReqs == 0 || want.WireSeconds == 0 {
		t.Errorf("run did no zero-copy work: %+v", want)
	}
}

func TestMemset(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("m", memsys.SpaceGPU, 1<<20)
	for i := range buf.Data {
		buf.Data[i] = 0xAB
	}
	before := d.Clock()
	d.Memset(buf, 0)
	if d.Clock() <= before {
		t.Errorf("Memset should advance the clock")
	}
	for i, v := range buf.Data {
		if v != 0 {
			t.Fatalf("byte %d not cleared: %#x", i, v)
		}
	}
}

func TestWarpMiscAccessors(t *testing.T) {
	d := testDevice()
	buf := d.Arena().MustAlloc("g", memsys.SpaceGPU, 64)
	buf.PutU32(3, 99)
	ks := d.Launch("k", 1, func(w *Warp) {
		w.Instr(7)
		if got := w.ScalarU32(buf, 3); got != 99 {
			t.Errorf("ScalarU32 = %d, want 99", got)
		}
	})
	// 7 explicit instrs + 1 per access.
	if ks.WarpInstrs < 8 {
		t.Errorf("WarpInstrs = %d, want >= 8", ks.WarpInstrs)
	}
}
