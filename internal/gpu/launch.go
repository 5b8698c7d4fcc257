package gpu

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/memsys"
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

// chunksPerWorker is how many chunks the parallel path cuts a launch into
// per worker. Workers claim chunks as they finish the previous one, so a
// worker stuck on a run of hub warps (R-MAT graphs keep their hubs at the
// low IDs) no longer holds up the barrier while the others sit idle.
const chunksPerWorker = 16

// ShardRange splits the warp ID range [0, warps) into parts contiguous
// ranges and returns range i as the half-open interval [lo, hi). The first
// warps%parts ranges hold one extra warp, so every ID is covered exactly
// once and range sizes differ by at most one. Launch uses it to cut the
// chunk grid.
func ShardRange(warps, parts, i int) (lo, hi int) {
	if parts <= 0 || i < 0 || i >= parts {
		panic(fmt.Sprintf("gpu: ShardRange(%d, %d, %d) out of range", warps, parts, i))
	}
	base := warps / parts
	rem := warps % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// chunkSlot is one chunk's private accumulation slot: launch stats, a
// private traffic monitor, the per-size zero-copy request counts, and the
// chunk's UVM touch log. All counting fields merge commutatively at the
// launch barrier; traces and touch logs merge in ascending chunk order.
// Slots live in the device's pool and are reused across launches, the
// touch log's capacity included.
type chunkSlot struct {
	ks        KernelStats
	mon       pcie.Monitor
	zcBySize  [zcSizeClasses]uint64
	cxlBySize [zcSizeClasses]uint64
	uvm       touchLog
}

// touchLog is what a parallel chunk records instead of touching the UVM
// manager, whose LRU outcome depends on touch order: its UVM requests in
// issue order, replayed through the manager at the launch barrier.
type touchLog struct {
	bufs    []*memsys.Buffer
	touches []uvmTouch
}

// uvmTouch is a run of n identical-page UVM requests of one buffer
// (bufs[buf]) issued back to back, the first at offset off with size bytes.
// pos is where the run's migration records belong in the chunk's trace:
// the entries its monitor had kept at issue. Once the chunk's trace drops
// entries the launch's trace is full too, so every later position drops
// its records alike and only their count, which MergeTrace keeps, matters.
// Runs keep the log at 16 bytes per run of requests.
type uvmTouch struct {
	off  int64
	pos  uint32
	n    uint16
	buf  uint8
	size uint8
}

// add logs one UVM request. It extends the last run when the request
// covers the same pages of the same buffer with no trace entry offered in
// between: the manager's outcome depends only on the page range, so
// replaying the run's first request n times is the same sequence of
// touches.
func (l *touchLog) add(buf *memsys.Buffer, off int64, size int, mon *pcie.Monitor, pageBytes int64) {
	pos := uint32(len(mon.Trace()))
	b := l.bufIndex(buf)
	if k := len(l.touches) - 1; k >= 0 {
		t := &l.touches[k]
		if t.buf == b && t.pos == pos && t.n < math.MaxUint16 &&
			t.off/pageBytes == off/pageBytes &&
			(t.off+int64(t.size)-1)/pageBytes == (off+int64(size)-1)/pageBytes {
			t.n++
			return
		}
	}
	l.touches = append(l.touches, uvmTouch{off: off, pos: pos, n: 1, buf: b, size: uint8(size)})
}

// bufIndex returns buf's index in the log's buffer table, adding it if
// new. A launch touches a handful of UVM buffers at most.
func (l *touchLog) bufIndex(buf *memsys.Buffer) uint8 {
	for i := len(l.bufs) - 1; i >= 0; i-- {
		if l.bufs[i] == buf {
			return uint8(i)
		}
	}
	if len(l.bufs) > math.MaxUint8 {
		panic("gpu: a launch touched more than 256 UVM buffers")
	}
	l.bufs = append(l.bufs, buf)
	return uint8(len(l.bufs) - 1)
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
	if lc.serial {
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
// no request ever crosses a warp boundary and chunked launches stay
// bit-identical to serial ones. w.Local is deliberately not reset: it is
// the kernel's per-worker scratch.
func runWarpRange(w *Warp, lo, hi int, body func(w *Warp)) {
	for id := lo; id < hi; id++ {
		w.id = id
		w.InvalidateMRU()
		w.zcLanes = 0
		w.hostReqs = 0
		w.cxlReqs = 0
		w.faultSeq = 0
		body(w)
		w.flushReorder()
		w.ks.ZCActiveLanes += uint64(Mask(w.zcLanes).Count())
		// Fold the warp's request counts into the kernel's critical-path
		// maxima.
		w.ks.MaxWarpHostReqs = max(w.ks.MaxWarpHostReqs, w.hostReqs)
		w.ks.MaxWarpCXLReqs = max(w.ks.MaxWarpCXLReqs, w.cxlReqs)
	}
}

// Launch executes a kernel: body is invoked once per warp with warp IDs
// 0..warps-1. The parallel path cuts the ID range into a fixed grid of
// contiguous chunks that the worker pool (Config.Workers) claims as it
// goes, so bodies run concurrently unless the launch is serial — see
// Serial and the package comment for the safety contract. It returns a
// copy of the launch's statistics after advancing the simulated clock.
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
	d.ev.BeginEvent(&d.mon)
	if workers == 1 {
		// Serial fast path: accumulate straight into the launch stats and
		// the launch's traffic record through the device's persistent warp,
		// exactly like the historical engine but with zero per-launch
		// allocations.
		d.serialZC = [zcSizeClasses]uint64{}
		d.serialCXL = [zcSizeClasses]uint64{}
		w := &d.serialWarp
		w.dev = d
		w.ks = ks
		w.mon = &d.ev
		w.zcBySize = &d.serialZC
		w.cxlBySize = &d.serialCXL
		w.reorderCap = rcap
		runWarpRange(w, 0, warps, body)
		d.finish(ks, &d.serialZC, &d.serialCXL, 1)
		return *ks
	}

	chunks := min(warps, workers*chunksPerWorker)
	for len(d.slotPool) < chunks {
		d.slotPool = append(d.slotPool, &chunkSlot{})
	}
	for len(d.workerWarps) < workers {
		d.workerWarps = append(d.workerWarps, &Warp{})
	}
	slots := d.slotPool[:chunks]
	for _, sl := range slots {
		sl.ks = KernelStats{}
		sl.zcBySize = [zcSizeClasses]uint64{}
		sl.cxlBySize = [zcSizeClasses]uint64{}
		sl.uvm.bufs = sl.uvm.bufs[:0]
		sl.uvm.touches = sl.uvm.touches[:0]
		// Each chunk may fill the launch's whole trace budget; the ordered
		// merge below truncates at what earlier chunks left.
		sl.mon.BeginEvent(&d.ev)
	}
	// Each worker keeps its own warp for the device's lifetime, so the
	// warp's kernel-private Local scratch is per worker, not per chunk.
	d.nextChunk.Store(0)
	var wg sync.WaitGroup
	for _, w := range d.workerWarps[:workers] {
		w.dev = d
		w.reorderCap = rcap
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(d.nextChunk.Add(1)) - 1
				if c >= chunks {
					return
				}
				sl := slots[c]
				w.ks = &sl.ks
				w.mon = &sl.mon
				w.zcBySize = &sl.zcBySize
				w.cxlBySize = &sl.cxlBySize
				w.touches = &sl.uvm
				lo, hi := ShardRange(warps, chunks, c)
				runWarpRange(w, lo, hi, body)
			}
		}()
	}
	wg.Wait()

	// Merge into the launch's traffic record in ascending chunk order.
	// Since chunks are contiguous warp ranges, concatenating their monitor
	// traces reproduces the serial arrival order whichever worker ran which
	// chunk; every counter merge is a sum or a max. Each chunk's logged UVM
	// touches replay through the manager here, in serial warp order, with
	// their migration records spliced into the trace where the chunk
	// logged them.
	var zc, cxl [zcSizeClasses]uint64
	for _, sl := range slots {
		ks.Add(&sl.ks)
		for j, n := range sl.zcBySize {
			zc[j] += n
		}
		for j, n := range sl.cxlBySize {
			cxl[j] += n
		}
		d.ev.MergeCounts(&sl.mon)
		var at uint64
		for _, t := range sl.uvm.touches {
			pos := uint64(t.pos)
			d.ev.MergeTrace(&sl.mon, at, pos)
			at = pos
			for range t.n {
				d.touchUVM(ks, &d.ev, sl.uvm.bufs[t.buf], t.off, int(t.size))
			}
		}
		d.ev.MergeTrace(&sl.mon, at, sl.mon.Offered())
	}
	d.finish(ks, &zc, &cxl, workers)
	return *ks
}
