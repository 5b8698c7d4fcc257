package gpu

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pcie"
)

// zcSizeClasses is the number of distinct zero-copy request sizes the
// coalescer can emit: 32, 64, 96, and 128 bytes (paper Figure 3). Workers
// count requests per size class as integers during the kernel; finish
// converts the merged counts into wire/tag seconds so the float arithmetic
// is independent of the warp partitioning.
const zcSizeClasses = 4

// LaunchOption adjusts how one kernel launch executes.
type LaunchOption func(*launchConfig)

type launchConfig struct {
	serial bool
}

// Serial forces the launch onto a single worker regardless of
// Config.Workers. Kernel bodies that read values other warps of the same
// launch write through anything but commutative atomics — or that mutate
// plain host-side state — are order- or race-sensitive and must opt out of
// parallel execution to keep results bit-for-bit reproducible.
func Serial() LaunchOption { return func(c *launchConfig) { c.serial = true } }

// ShardRange splits the warp ID range [0, warps) into workers contiguous
// shards and returns shard i as the half-open interval [lo, hi). The first
// warps%workers shards hold one extra warp, so every ID is covered exactly
// once and shard sizes differ by at most one.
func ShardRange(warps, workers, i int) (lo, hi int) {
	if workers <= 0 || i < 0 || i >= workers {
		panic(fmt.Sprintf("gpu: ShardRange(%d, %d, %d) out of range", warps, workers, i))
	}
	base := warps / workers
	rem := warps % workers
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// launchShard is one worker's private accumulation state: a stats shard, a
// private traffic monitor, the per-size zero-copy request counts, and the
// worker's persistent warp. All counting fields merge commutatively (or in
// ascending shard order, for traces) at the launch barrier. Shards live in
// the device's pool and are reused across launches, so a worker index keeps
// its warp — and the warp's kernel-private Local scratch — for the lifetime
// of the device.
type launchShard struct {
	ks        KernelStats
	mon       pcie.Monitor
	zcBySize  [zcSizeClasses]uint64
	cxlBySize [zcSizeClasses]uint64
	w         Warp
}

// reorderCap resolves the effective reorder-window bound: 0 when the stage
// is off, otherwise at least one full 128B line so any single coalesced run
// fits an empty window.
func (d *Device) reorderCap() int {
	c := d.cfg.ReorderWindow
	if c > 0 && c < minReorderWindow {
		c = minReorderWindow
	}
	return c
}

// workerCount resolves the effective worker count for a launch.
func (d *Device) workerCount(warps int, lc *launchConfig) int {
	// UVM page faults mutate the manager's LRU residency state, whose
	// outcome depends on fault order; those launches stay serial, as does
	// anything that asked for it explicitly and any routed (adaptive
	// transport policy) run, which can bind segments to UVM mid-run.
	if lc.serial || d.forceSerial || d.arena.HasUVM() {
		return 1
	}
	n := d.cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > warps {
		n = warps
	}
	if n < 1 {
		n = 1
	}
	return n
}

// runWarpRange executes warp IDs [lo, hi) on w in ascending order. The
// reorder window drains at each warp's end — before the critical-path fold,
// since flushed requests still belong to the warp that buffered them — so
// no request ever crosses a warp boundary and sharded launches stay
// bit-identical to serial ones. w.Local is deliberately not reset: it is
// the kernel's per-worker scratch.
func runWarpRange(w *Warp, lo, hi int, body func(w *Warp)) {
	for id := lo; id < hi; id++ {
		w.id = id
		w.mruValid = 0
		w.zcLanes = 0
		w.hostReqs = 0
		w.cxlReqs = 0
		w.faultSeq = 0
		body(w)
		w.flushReorder()
		w.ks.ZCActiveLanes += uint64(Mask(w.zcLanes).Count())
		w.flushCriticalPath()
	}
}

// Launch executes a kernel: body is invoked once per warp with warp IDs
// 0..warps-1, partitioned into contiguous shards across the worker pool
// (Config.Workers). Bodies therefore run concurrently unless the launch is
// serial — see Serial and the package comment for the safety contract. It
// returns a copy of the launch's statistics after advancing the simulated
// clock.
func (d *Device) Launch(name string, warps int, body func(w *Warp), opts ...LaunchOption) KernelStats {
	if warps < 0 {
		panic(fmt.Sprintf("gpu: Launch %q with negative warp count %d", name, warps))
	}
	// The option scratch lives on the device, not this frame: &lc of a local
	// would escape through the indirect option calls and heap-allocate on
	// every launch, breaking the zero-alloc round contract. Launches on one
	// device are never concurrent, so the field is safe to reuse.
	d.lc = launchConfig{}
	lc := &d.lc
	for _, o := range opts {
		o(lc)
	}
	workers := d.workerCount(warps, lc)
	rcap := d.reorderCap()

	d.ks = KernelStats{Name: name, Warps: warps}
	ks := &d.ks
	if workers == 1 {
		// Serial fast path: accumulate straight into the launch stats and
		// the device monitor through the device's persistent warp, exactly
		// like the historical engine but with zero per-launch allocations.
		d.serialZC = [zcSizeClasses]uint64{}
		d.serialCXL = [zcSizeClasses]uint64{}
		w := &d.serialWarp
		w.dev = d
		w.ks = ks
		w.mon = &d.mon
		w.zcBySize = &d.serialZC
		w.cxlBySize = &d.serialCXL
		w.reorderCap = rcap
		runWarpRange(w, 0, warps, body)
		d.finish(ks, &d.serialZC, &d.serialCXL, 1)
		return *ks
	}

	for len(d.shardPool) < workers {
		d.shardPool = append(d.shardPool, &launchShard{})
	}
	shards := d.shardPool[:workers]
	traceLimit := d.mon.TraceLimit()
	var wg sync.WaitGroup
	for i, sh := range shards {
		sh.ks = KernelStats{}
		sh.zcBySize = [zcSizeClasses]uint64{}
		sh.cxlBySize = [zcSizeClasses]uint64{}
		sh.mon.Reset()
		if traceLimit != sh.mon.TraceLimit() {
			// Give each shard the full budget; the ordered merge below
			// truncates at the device monitor's remaining capacity.
			sh.mon.EnableTrace(traceLimit)
		}
		lo, hi := ShardRange(warps, workers, i)
		w := &sh.w
		w.dev = d
		w.ks = &sh.ks
		w.mon = &sh.mon
		w.zcBySize = &sh.zcBySize
		w.cxlBySize = &sh.cxlBySize
		w.reorderCap = rcap
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWarpRange(w, lo, hi, body)
		}()
	}
	wg.Wait()

	// Merge in ascending shard order. Since shards are contiguous warp
	// ranges, concatenating their monitor traces reproduces the serial
	// arrival order; every counter merge is a sum or a max.
	var zc, cxl [zcSizeClasses]uint64
	for _, sh := range shards {
		ks.Add(&sh.ks)
		for j, n := range sh.zcBySize {
			zc[j] += n
		}
		for j, n := range sh.cxlBySize {
			cxl[j] += n
		}
		d.mon.Merge(&sh.mon)
	}
	d.finish(ks, &zc, &cxl, workers)
	return *ks
}
