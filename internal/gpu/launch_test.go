package gpu

import (
	"fmt"
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/pcie"
	"repro/internal/uvm"
)

func TestShardRangeProperties(t *testing.T) {
	cases := []struct{ warps, workers int }{
		{0, 1}, {0, 8}, {1, 1}, {1, 8}, {7, 8}, {8, 8}, {9, 8},
		{100, 1}, {100, 3}, {100, 7}, {1000, 16}, {31, 32},
	}
	for _, c := range cases {
		covered := make([]int, c.warps)
		prevHi := 0
		for i := 0; i < c.workers; i++ {
			lo, hi := ShardRange(c.warps, c.workers, i)
			if lo != prevHi {
				t.Errorf("ShardRange(%d,%d,%d): lo = %d, want %d (contiguity)", c.warps, c.workers, i, lo, prevHi)
			}
			if size := hi - lo; size < c.warps/c.workers || size > c.warps/c.workers+1 {
				t.Errorf("ShardRange(%d,%d,%d): size %d not within one of %d", c.warps, c.workers, i, size, c.warps/c.workers)
			}
			for id := lo; id < hi; id++ {
				covered[id]++
			}
			prevHi = hi
		}
		if prevHi != c.warps {
			t.Errorf("ShardRange(%d,%d): last hi = %d, want %d", c.warps, c.workers, prevHi, c.warps)
		}
		for id, n := range covered {
			if n != 1 {
				t.Errorf("ShardRange(%d,%d): warp %d covered %d times", c.warps, c.workers, id, n)
			}
		}
	}
}

// edgeMode is where TestLaunchWorkerEquivalence's gathered edge array
// lives.
type edgeMode int

const (
	// edgesPinned: host-pinned, read zero-copy.
	edgesPinned edgeMode = iota
	// edgesUVM: UVM-managed, every gather faults or hits pages.
	edgesUVM
	// edgesRouted: host-pinned with a router that binds every third 64KB
	// segment to UVM, as the adaptive transport policy does.
	edgesRouted
)

// launchCase is one kernel shape for TestLaunchWorkerEquivalence: the
// grid size, how many low warp IDs are hubs that do hubGathers extra
// scattered gathers each, the monitor's trace bound, and where the edge
// array lives (with the UVM page capacity when it can fault).
type launchCase struct {
	name       string
	warps      int
	hubs       int
	traceLimit int
	edges      edgeMode
	uvmPages   int
}

// hubGathers is the extra gather count of a hub warp: enough that the
// chunks holding the hubs finish long after the rest.
const hubGathers = 24

// launchRun is what one launch leaves behind for comparison.
type launchRun struct {
	ks      KernelStats
	snap    pcie.Snapshot
	trace   []pcie.TraceEntry
	dropped uint64
	vals    []uint32
}

// diff describes the first way got differs from the serial reference
// run, or returns "" when every field matches: launch stats (UVM
// migrations, hits and evictions included), monitor counters, trace order
// and dropped count, and the functional buffer contents.
func (ref launchRun) diff(got launchRun) string {
	ks, refKS := got.ks, ref.ks
	ks.Name, refKS.Name = "", ""
	if ks != refKS {
		return fmt.Sprintf("stats differ:\nserial:   %+v\nparallel: %+v", refKS, ks)
	}
	snap, refSnap := got.snap, ref.snap
	if snap.Requests != refSnap.Requests || snap.PayloadBytes != refSnap.PayloadBytes ||
		snap.WireBytes != refSnap.WireBytes || snap.AvgBandwidth != refSnap.AvgBandwidth ||
		!maps.Equal(snap.BySize, refSnap.BySize) || !maps.Equal(snap.ByClass, refSnap.ByClass) {
		return fmt.Sprintf("monitor counters differ: %+v vs serial %+v", snap, refSnap)
	}
	if got.dropped != ref.dropped {
		return fmt.Sprintf("trace dropped %d, want %d", got.dropped, ref.dropped)
	}
	if len(got.trace) != len(ref.trace) {
		return fmt.Sprintf("trace length %d, want %d", len(got.trace), len(ref.trace))
	}
	for i := range ref.trace {
		if got.trace[i] != ref.trace[i] {
			return fmt.Sprintf("trace[%d] = %+v, want %+v (arrival order)", i, got.trace[i], ref.trace[i])
		}
	}
	for i := range ref.vals {
		if got.vals[i] != ref.vals[i] {
			return fmt.Sprintf("vals[%d] = %d, want %d", i, got.vals[i], ref.vals[i])
		}
	}
	return ""
}

// collect gathers a launch's comparison record from its device.
func collect(d *Device, ks KernelStats, vals *memsys.Buffer) launchRun {
	out := make([]uint32, vals.Size()/4)
	for i := range out {
		out[i] = vals.U32(int64(i))
	}
	return launchRun{ks, d.Monitor().Snapshot(),
		d.Monitor().Trace(), d.Monitor().TraceDropped(), out}
}

// allocEdges allocates an edge array of n 8-byte elements where mode says,
// misaligned by baseOffset bytes, and sizes the UVM manager to capPages
// pages of blockPages-page prefetch blocks when the array can fault.
func allocEdges(d *Device, mode edgeMode, n int64, baseOffset uint64, capPages, blockPages int) *memsys.Buffer {
	space := memsys.SpaceHostPinned
	if mode == edgesUVM {
		space = memsys.SpaceUVM
	}
	edges := d.Arena().MustAlloc("edges", space, n*8, memsys.WithBaseOffset(baseOffset))
	if mode == edgesRouted {
		// Every third segment, from the second, is bound to UVM.
		route := make([]memsys.Space, edges.Segments())
		for i := range route {
			route[i] = memsys.SpaceHostPinned
			if i%3 == 1 {
				route[i] = memsys.SpaceUVM
			}
		}
		edges.SetRoute(route, memsys.SegmentShift)
	}
	if mode != edgesPinned {
		cfg := uvm.ConfigWithPaging(capPages, false)
		cfg.BlockPages = blockPages
		d.uvmgr = uvm.NewManager(cfg)
	}
	return edges
}

// launchStatsForWorkers runs a mixed edge-array + HBM kernel — strided
// gathers from the edge array, atomic mins into a GPU array, a scalar flag
// store — on a fresh device with the given worker count and returns what
// the launch left behind. Hub warps add scattered gathers in contiguous
// groups of 8 to 128 bytes, so their requests differ in size from the
// other warps' and any reordering shows in the trace; on a UVM or routed
// edge array they also fault pages all over it.
func launchStatsForWorkers(t *testing.T, lc launchCase, workers int) launchRun {
	t.Helper()
	d := NewDevice(Config{
		Name:    fmt.Sprintf("w%d", workers),
		Workers: workers,
		Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
	d.Monitor().EnableTrace(lc.traceLimit)
	n := int64(lc.warps) * WarpSize
	edges := allocEdges(d, lc.edges, n, 0, lc.uvmPages, 32)
	vals := d.Arena().MustAlloc("vals", memsys.SpaceGPU, n*4, memsys.WithElem(4))
	flag := d.Arena().MustAlloc("flag", memsys.SpaceGPU, 4, memsys.WithElem(4))
	for i := int64(0); i < n; i++ {
		edges.PutU64(i, uint64((i*2654435761)%n))
		vals.PutU32(i, ^uint32(0))
	}
	ks := d.Launch("mixed", lc.warps, func(w *Warp) {
		base := int64(w.ID()) * WarpSize
		var idx [WarpSize]int64
		for l := 0; l < WarpSize; l++ {
			idx[l] = base + int64(l)
		}
		dst := w.GatherU64(edges, &idx, MaskFull)
		if w.ID() < lc.hubs {
			for k := 0; k < hubGathers; k++ {
				g := int64(1) << (k % 5) // lanes per contiguous group
				for l := 0; l < WarpSize; l++ {
					idx[l] = int64(dst[(l+k)%WarpSize])&^(g-1) + int64(l)%g
				}
				w.GatherU64(edges, &idx, MaskFull)
			}
		}
		var tgt [WarpSize]int64
		var cand [WarpSize]uint32
		for l := 0; l < WarpSize; l++ {
			tgt[l] = int64(dst[l])
			cand[l] = uint32(w.ID())
		}
		w.RelaxMinU32(vals, &tgt, &cand, MaskFull)
		w.AtomicOrScalarU32(flag, 0, 1)
	})
	return collect(d, ks, vals)
}

// TestLaunchWorkerEquivalence checks the engine contract directly at the
// gpu layer: stats, clock, UVM manager state, monitor counters, trace
// order and dropped count, and functional buffer contents are identical
// for 1, 2, 3, 5, and 8 workers. Besides a uniform kernel it runs a skewed
// one whose hub warps at the low IDs are far costlier than the rest, so
// workers finish their chunks out of order; the warp counts are not
// multiples of the chunk grid (4099) or are below it (21), and the trace
// bound cuts the launch's stream in the middle. The UVM and routed kernels
// read a UVM page cache far smaller than their working set, so the LRU
// evicts mid-launch and every touch outcome depends on the order the
// barrier replays the chunks' touch logs in.
func TestLaunchWorkerEquivalence(t *testing.T) {
	for _, lc := range []launchCase{
		{name: "uniform", warps: 1 << 12 / WarpSize, traceLimit: 4096},
		{name: "skewed", warps: 4099, hubs: 256, traceLimit: 100000},
		{name: "few-warps", warps: 21, hubs: 3, traceLimit: 1100},
		{name: "uvm", warps: 4099, hubs: 256, traceLimit: 100000, edges: edgesUVM, uvmPages: 48},
		{name: "uvm-few-warps", warps: 21, hubs: 3, traceLimit: 1100, edges: edgesUVM, uvmPages: 1},
		{name: "routed", warps: 4099, hubs: 256, traceLimit: 100000, edges: edgesRouted, uvmPages: 48},
	} {
		t.Run(lc.name, func(t *testing.T) {
			ref := launchStatsForWorkers(t, lc, 1)
			if ref.ks.HBMBytes == 0 {
				t.Fatalf("reference kernel produced no HBM traffic: %+v", ref.ks)
			}
			if lc.edges != edgesUVM && ref.ks.PCIeRequests == 0 {
				t.Fatalf("reference kernel produced no zero-copy traffic: %+v", ref.ks)
			}
			if lc.edges != edgesPinned && (ref.ks.UVMEvictions == 0 || ref.ks.UVMHits == 0) {
				t.Fatalf("UVM capacity %d pages does not make the LRU evict and hit mid-launch: %+v",
					lc.uvmPages, ref.ks)
			}
			if lc.hubs > 0 && ref.dropped == 0 {
				t.Fatalf("trace bound %d does not cut the launch's %d requests", lc.traceLimit, ref.snap.Requests)
			}
			for _, workers := range []int{2, 3, 5, 8} {
				if d := ref.diff(launchStatsForWorkers(t, lc, workers)); d != "" {
					t.Errorf("workers=%d: %s", workers, d)
				}
			}
		})
	}
}

// TestLaunchLocalPerWorker pins the per-worker scratch contract that the
// traversal engine's zero-alloc rounds rest on (internal/core/scratch.go):
// Warp.Local belongs to the worker that runs a chunk, not to the chunk, so
// a launch sees at most one Local per worker, and the next launch sees the
// same ones. Each worker's first warp of a launch waits until every worker
// has checked in, which makes all of them claim a chunk whatever the
// scheduler does.
func TestLaunchLocalPerWorker(t *testing.T) {
	for _, workers := range []int{2, 3, 5, 8} {
		d := NewDevice(Config{
			Name:    fmt.Sprintf("locals-w%d", workers),
			Workers: workers,
			Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		})
		var prev map[*int]bool
		for launch := 0; launch < 2; launch++ {
			var mu sync.Mutex
			seen := map[*int]bool{}
			timedOut := false
			deadline := time.Now().Add(10 * time.Second)
			d.Launch("locals", 4099, func(w *Warp) {
				if w.Local == nil {
					w.Local = new(int)
				}
				p := w.Local.(*int)
				mu.Lock()
				defer mu.Unlock()
				if seen[p] {
					return
				}
				seen[p] = true
				for len(seen) < workers && !timedOut {
					mu.Unlock()
					runtime.Gosched()
					mu.Lock()
					timedOut = timedOut || time.Now().After(deadline)
				}
			})
			if timedOut {
				t.Fatalf("workers=%d launch %d: only %d workers claimed a chunk", workers, launch, len(seen))
			}
			if len(seen) > workers {
				t.Errorf("workers=%d launch %d: body saw %d distinct Locals, want at most %d (a chunk got a fresh warp)",
					workers, launch, len(seen), workers)
			}
			if prev != nil && !maps.Equal(prev, seen) {
				t.Errorf("workers=%d: the two launches saw different Locals (%d, then %d); want the same per-worker scratch",
					workers, len(prev), len(seen))
			}
			prev = seen
		}
	}
}

// TestUVMLaunchWorkerEquivalence checks that a launch over a live UVM
// buffer is identical on one worker and on eight: the chunks log their
// touches and the barrier replays them through the manager in chunk order.
// The manager's LRU bookkeeping is not thread-safe, so under -race this
// test also proves no worker touches it.
func TestUVMLaunchWorkerEquivalence(t *testing.T) {
	run := func(workers int) (KernelStats, []uint64) {
		d := NewDevice(Config{
			Name:    "uvm",
			Workers: workers,
			Tiers:   memsys.TwoTier(1<<16, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		})
		const n = 1 << 12
		buf := d.Arena().MustAlloc("edges", memsys.SpaceUVM, n*8)
		for i := int64(0); i < n; i++ {
			buf.PutU64(i, uint64(i)*3)
		}
		ks := d.Launch("touch", n/WarpSize, func(w *Warp) {
			base := int64(w.ID()) * WarpSize
			var idx [WarpSize]int64
			for l := 0; l < WarpSize; l++ {
				idx[l] = base + int64(l)
			}
			w.GatherU64(buf, &idx, MaskFull)
		})
		out := make([]uint64, 4)
		for i := range out {
			out[i] = buf.U64(int64(i))
		}
		return ks, out
	}
	ks1, v1 := run(1)
	ks8, v8 := run(8)
	ks8.Name = ks1.Name
	if ks1 != ks8 {
		t.Errorf("UVM launch stats differ across worker counts:\nw1: %+v\nw8: %+v", ks1, ks8)
	}
	if ks1.UVMMigrations == 0 {
		t.Errorf("UVM kernel did not fault any pages: %+v", ks1)
	}
	for i := range v1 {
		if v1[i] != v8[i] {
			t.Errorf("UVM data differs at %d: %d vs %d", i, v1[i], v8[i])
		}
	}
}

// TestSerialOption checks the explicit opt-out: a body that mutates plain
// host state without atomics must be safe when launched with Serial().
func TestSerialOption(t *testing.T) {
	d := NewDevice(Config{
		Name:    "serial-opt",
		Workers: 8,
		Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
	const warps = 1024
	order := make([]int, 0, warps)
	d.Launch("ordered", warps, func(w *Warp) {
		order = append(order, w.ID())
	}, Serial())
	if len(order) != warps {
		t.Fatalf("serial launch ran %d warps, want %d", len(order), warps)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("serial launch order[%d] = %d, want ascending IDs", i, id)
		}
	}
}
