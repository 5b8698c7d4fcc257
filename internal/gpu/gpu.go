// Package gpu implements a warp-level SIMT execution model: kernels are Go
// functions run one warp at a time against real buffer data, with every
// memory access routed through a coalescing unit that emits the same
// 32/64/96/128-byte transactions a real GPU emits (paper Figure 3), and a
// roofline time model that converts the resulting traffic into simulated
// kernel time.
//
// The simulator is deterministic and, since the parallel execution engine,
// that determinism no longer depends on running warps one at a time: Launch
// cuts the warp ID range into a fixed grid of contiguous chunks that a pool
// of host worker goroutines claims as it goes (Config.Workers; 1 reproduces
// the historical serial path), each chunk accumulates into a private stats
// slot, and the slots are merged in ascending chunk order at the launch
// barrier, whichever worker ran which chunk. Every merged quantity is
// either a commutative integer reduction (sums, a max) or a float derived
// from merged integers after the barrier, so totals, thrash charging, and
// the simulated clock are bit-for-bit identical for every worker count.
// Order-dependent state stays off the parallel path: chunks log their UVM
// touches instead of applying them (the LRU residency bookkeeping is
// order-dependent), the barrier replays the logs in chunk order, and
// kernels whose bodies are order-sensitive pass the Serial launch option.
// See DESIGN.md, "Parallel execution engine".
package gpu

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/memsys"
	"repro/internal/pcie"
	"repro/internal/uvm"
)

// WarpSize is the number of threads (lanes) per warp.
const WarpSize = 32

// Config describes one simulated GPU and its attachment to the host.
type Config struct {
	Name string

	// Tiers is the device's memory hierarchy: capacities, interconnects,
	// and DRAM models for HBM, host DRAM, and (optionally) a CXL-class
	// external tier. Build it with memsys.TwoTier / memsys.ThreeTierCXL;
	// NewDevice validates it. A zero HBM or DRAM capacity is uncapped.
	Tiers memsys.TierStack

	// GPUDrivenPaging selects GPUVM-style GPU-driven paging for UVM
	// allocations: page fetches are posted by the GPU itself and charged
	// as link tag occupancy instead of waiting on the serialized CPU
	// fault handler. Migration counts are unchanged; only the time model
	// differs. See uvm.Config.GPUDriven.
	GPUDrivenPaging bool

	// LaunchOverhead is the fixed driver+hardware cost of one kernel launch.
	LaunchOverhead time.Duration

	// CopyOverhead is the fixed driver cost of one explicit memcpy call.
	CopyOverhead time.Duration

	// WarpInstrPerSec is the aggregate warp-instruction throughput used for
	// the compute term of the roofline. Graph traversal is bandwidth-bound,
	// so this only matters as a floor for fully in-memory runs.
	WarpInstrPerSec float64

	// L2Bytes is the GPU cache capacity available to hold zero-copy
	// sectors between a thread's sequential touches. Scaled along with
	// the HBM capacity in scaled systems. When the concurrent stream
	// footprint exceeds it, per-thread sector reuse is lost and elements are
	// re-fetched — the paper's §3.3 "frequent cacheline evictions ...
	// transferring more bytes to the GPU compared to the original
	// dataset".
	L2Bytes int64

	// MaxConcurrentLanes is the hardware thread concurrency (V100: 80 SMs
	// x 2048 threads). Scaled along with the HBM capacity in scaled
	// systems so the streams-vs-cache ratio of the full-size machine is
	// preserved.
	MaxConcurrentLanes int

	// PerWarpOutstanding is the number of host-memory read requests one
	// warp can keep in flight (load/store unit scoreboard depth). It
	// bounds a single warp's streaming rate and therefore the critical
	// path of kernels with extremely long neighbor lists — the load
	// imbalance the paper's §6 discusses delegating to workload-balancing
	// schemes [38, 39].
	PerWarpOutstanding int

	// Workers is the number of host worker goroutines a kernel launch
	// spreads its warps over. 0 selects runtime.GOMAXPROCS(0); 1 executes
	// warps serially in ascending ID order (the historical engine).
	// Results are bit-for-bit identical for every value — see the package
	// comment and DESIGN.md for the determinism argument.
	Workers int

	// ThrashSensitivity converts the concurrent-stream footprint ratio
	// into a reuse-miss fraction: miss = clamp01(sensitivity * footprint /
	// L2Bytes). It is below 1 because LRU strongly favors the short reuse
	// distances of sequential streams. Calibrated once against Figure 9's
	// Naive-vs-UVM ratio (paper: 0.73x on average; see the thrash
	// sensitivity ablation for the sweep this value came from).
	ThrashSensitivity float64

	// ReorderWindow enables the IARU-style reorder stage (reorder.go): the
	// number of off-device 32B sectors a warp buffers before a
	// line-regrouped flush. 0 (the default) disables the stage and is
	// bit-identical to the pre-reorder engine; positive values are clamped
	// up to one full 128B line (4 sectors). Larger windows see more
	// cross-slice locality and merge more requests, at the cost of modeled
	// reorder-unit capacity (DESIGN.md §17).
	ReorderWindow int
}

// KernelStats aggregates one kernel launch's activity and its simulated
// elapsed time.
type KernelStats struct {
	Name  string
	Warps int

	WarpInstrs uint64

	// GPU-local traffic.
	HBMBytes uint64

	// Zero-copy traffic (requests that crossed the link individually).
	PCIeRequests     uint64
	PCIePayloadBytes uint64

	// Host DRAM bytes actually served (includes 64B-burst rounding).
	HostDRAMBytes uint64

	// CXL-tier traffic: coalesced reads against CXL-homed segments that
	// crossed the external tier's link individually, and the expander-side
	// bytes served (burst rounding included; UVM migrations out of CXL
	// count bytes here too). All zero on two-tier systems.
	CXLRequests     uint64
	CXLPayloadBytes uint64
	CXLMemBytes     uint64

	// UVM activity. Device and run totals also count the evictions of
	// transport-policy rebinds (EvictUVM).
	UVMMigrations uint64
	UVMHits       uint64
	UVMEvictions  uint64

	// Zero-copy sector reuse accounting for the L2 thrash model: potential
	// per-lane sector reuses observed, total lanes that streamed zero-copy
	// data, and the re-fetch requests actually charged at finish time.
	ZCSectorReuses uint64
	ZCActiveLanes  uint64
	ZCRefetches    uint64

	// MaxWarpHostReqs is the largest number of host-memory requests issued
	// by any single (virtual) warp: the kernel's latency-bound critical
	// path. Aggregated by maximum, not sum.
	MaxWarpHostReqs uint64

	// MaxWarpCXLReqs is the CXL-tier analogue of MaxWarpHostReqs: the
	// busiest warp's external-tier request count, whose critical path pays
	// the CXL link's microsecond RTT. Aggregated by maximum.
	MaxWarpCXLReqs uint64

	// Fault-injection activity (zero unless a pcie.FaultHook is attached
	// to the link). FaultedReads counts zero-copy requests whose
	// completion was injected as failed: their wire traffic happened but
	// the run that issued them is transiently broken and must be retried.
	// LatencySpikes counts requests charged an injected latency-spike
	// stall; the stall seconds are derived from the merged count at finish
	// time, like the other roofline terms.
	FaultedReads  uint64
	LatencySpikes uint64

	// Reorder-stage activity (zero unless Config.ReorderWindow > 0).
	// ReorderMerged counts off-device requests the window eliminated:
	// pre-reorder coalesced runs buffered minus line-regrouped requests
	// dispatched. ReorderFlushes counts window drains and
	// ReorderWindowSectors sums the window occupancy at each drain, so
	// ReorderWindowSectors/ReorderFlushes is the mean occupancy.
	ReorderMerged        uint64
	ReorderFlushes       uint64
	ReorderWindowSectors uint64

	// Roofline terms, in seconds. The CXL pair accumulates occupancy of
	// the external tier's link, which drains in parallel with the PCIe
	// link (separate physical channels).
	WireSeconds      float64
	TagSeconds       float64
	CXLWireSeconds   float64
	CXLTagSeconds    float64
	UVMSerialSeconds float64

	Elapsed time.Duration
}

// Add folds other into s (used for run-level aggregation).
func (s *KernelStats) Add(o *KernelStats) {
	s.Warps += o.Warps
	s.WarpInstrs += o.WarpInstrs
	s.HBMBytes += o.HBMBytes
	s.PCIeRequests += o.PCIeRequests
	s.PCIePayloadBytes += o.PCIePayloadBytes
	s.HostDRAMBytes += o.HostDRAMBytes
	s.CXLRequests += o.CXLRequests
	s.CXLPayloadBytes += o.CXLPayloadBytes
	s.CXLMemBytes += o.CXLMemBytes
	s.UVMMigrations += o.UVMMigrations
	s.UVMHits += o.UVMHits
	s.UVMEvictions += o.UVMEvictions
	s.ZCSectorReuses += o.ZCSectorReuses
	s.ZCActiveLanes += o.ZCActiveLanes
	s.ZCRefetches += o.ZCRefetches
	if o.MaxWarpHostReqs > s.MaxWarpHostReqs {
		s.MaxWarpHostReqs = o.MaxWarpHostReqs
	}
	if o.MaxWarpCXLReqs > s.MaxWarpCXLReqs {
		s.MaxWarpCXLReqs = o.MaxWarpCXLReqs
	}
	s.FaultedReads += o.FaultedReads
	s.LatencySpikes += o.LatencySpikes
	s.ReorderMerged += o.ReorderMerged
	s.ReorderFlushes += o.ReorderFlushes
	s.ReorderWindowSectors += o.ReorderWindowSectors
	s.WireSeconds += o.WireSeconds
	s.TagSeconds += o.TagSeconds
	s.CXLWireSeconds += o.CXLWireSeconds
	s.CXLTagSeconds += o.CXLTagSeconds
	s.UVMSerialSeconds += o.UVMSerialSeconds
	s.Elapsed += o.Elapsed
}

// Device is one simulated GPU attached to host memory over a PCIe link.
type Device struct {
	cfg   Config
	arena *memsys.Arena

	// The HBM and host-DRAM tiers of cfg.Tiers, resolved once by
	// NewDevice so the per-request paths read fields instead of walking
	// the stack: HBM capacity and model, host DRAM model, and the host
	// link (with its fault hook, if any).
	memBytes int64
	hbm      memsys.DRAMModel
	hostDRAM memsys.DRAMModel
	link     pcie.LinkConfig

	uvmgr *uvm.Manager
	mon   pcie.Monitor

	// ev is the traffic record of the launch or copy in flight: everything
	// the event puts on the link is recorded here, merged into mon once
	// when the event ends, and handed to telemetry (see EventTraffic).
	ev pcie.Monitor

	// tel is the optional telemetry sink (see telemetry.go). Every hook
	// site nil-checks it, so a detached device pays nothing.
	tel Telemetry

	// runMu serializes whole traversal runs for concurrent callers; see
	// Exclusive. Single-goroutine callers never touch it.
	runMu sync.Mutex

	clock time.Duration
	total KernelStats

	// run accumulates the activity since the last BeginRun (see RunStats):
	// every counter and roofline float summed from zero and the
	// critical-path maxima taken over the run's own kernels, so a run's
	// statistics do not depend on what the device ran before it.
	run KernelStats

	// runEpoch counts traversal runs on this device (incremented by
	// BeginRun). It is mixed into fault-injection decisions so a retry of
	// a faulted run sees fresh outcomes instead of deterministically
	// re-hitting the same faults; with injection disabled it is inert.
	runEpoch uint64

	// Reused launch scratch (launch.go): the in-flight launch's stats, the
	// persistent serial-path warp with its size-class counters, the
	// parallel path's per-chunk slots, per-worker warps and chunk claim
	// counter, so steady-state launches allocate nothing.
	ks          KernelStats
	serialWarp  Warp
	serialZC    [zcSizeClasses]uint64
	serialCXL   [zcSizeClasses]uint64
	slotPool    []*chunkSlot
	workerWarps []*Warp
	nextChunk   atomic.Int64
	lc          launchConfig
}

// NewDevice creates a device with a fresh memory arena and UVM manager for
// the memory hierarchy cfg.Tiers describes. It panics on an invalid stack.
func NewDevice(cfg Config) *Device {
	cfg.Tiers = slices.Clone(cfg.Tiers)
	if cfg.LaunchOverhead == 0 {
		cfg.LaunchOverhead = 8 * time.Microsecond
	}
	if cfg.CopyOverhead == 0 {
		cfg.CopyOverhead = 10 * time.Microsecond
	}
	if cfg.WarpInstrPerSec == 0 {
		cfg.WarpInstrPerSec = 1.2e11
	}
	if cfg.L2Bytes == 0 {
		cfg.L2Bytes = 6 << 20 // full-size V100 L2
	}
	if cfg.MaxConcurrentLanes == 0 {
		cfg.MaxConcurrentLanes = 80 * 2048
	}
	if cfg.ThrashSensitivity == 0 {
		cfg.ThrashSensitivity = 0.40
	}
	if cfg.PerWarpOutstanding == 0 {
		cfg.PerWarpOutstanding = 32
	}
	arena, err := memsys.NewTieredArena(cfg.Tiers)
	if err != nil {
		panic("gpu: " + err.Error())
	}
	hbm, dram := cfg.Tiers.HBM(), cfg.Tiers.DRAM()
	d := &Device{cfg: cfg, arena: arena,
		memBytes: hbm.CapacityBytes, hbm: hbm.Mem, hostDRAM: dram.Mem, link: dram.Link}
	d.uvmgr = uvm.NewManager(uvm.ConfigWithPaging(d.uvmCapacityPages(), cfg.GPUDrivenPaging))
	return d
}

// uvmCapacityPages computes how many UVM pages fit in GPU memory not
// claimed by explicit allocations.
func (d *Device) uvmCapacityPages() int {
	if d.memBytes <= 0 {
		return -1 // uncapped device: unlimited UVM caching
	}
	free := d.memBytes - d.arena.GPUUsed()
	if free < 0 {
		free = 0
	}
	return int(free / int64(memsys.PageBytes))
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetTiers replaces the device's tier stack at run time — the load-time
// path behind emogi.WithTierStack. Only the external tier may change: the
// stack's HBM and DRAM tiers must equal the device's (the simulated
// hardware does not change mid-flight; the device's fault hook is ignored
// in the comparison and kept). Attaching a CXL tier enables SpaceCXL
// homes; detaching one is refused while any bytes are still homed there.
func (d *Device) SetTiers(ts memsys.TierStack) error {
	if err := ts.Validate(); err != nil {
		return err
	}
	for i, t := range ts[:2] {
		own := d.cfg.Tiers[i]
		t.Link.Faults, own.Link.Faults = nil, nil
		if t != own {
			return fmt.Errorf("gpu: tier stack's %s tier does not match the device's; only the CXL tier may change", t.Kind)
		}
	}
	if ts.CXL() == nil {
		if used := d.arena.CXLUsed(); used > 0 {
			return fmt.Errorf("gpu: cannot detach the CXL tier with %d bytes still homed there", used)
		}
	}
	d.cfg.Tiers = append(d.cfg.Tiers[:2:2], ts[2:]...)
	d.arena.AttachCXLTier(d.cfg.Tiers.CXL())
	return nil
}

// Exclusive runs fn while holding the device's run mutex. The simulated
// device, like a real CUDA context, is a single-caller resource: its
// clock, arena, run statistics, and UVM residency are unsynchronized state
// that concurrent traversals would interleave on. Callers that share a
// device across goroutines (the traversal service, emogi.System.Do)
// wrap each whole run — BeginRun through EndRun, every launch and copy —
// in Exclusive; single-goroutine callers never need it.
func (d *Device) Exclusive(fn func()) {
	d.runMu.Lock()
	defer d.runMu.Unlock()
	fn()
}

// Arena returns the device's memory arena for allocations.
func (d *Device) Arena() *memsys.Arena { return d.arena }

// UVM returns the device's UVM manager.
func (d *Device) UVM() *uvm.Manager { return d.uvmgr }

// Monitor returns the PCIe traffic monitor observing this device's link.
func (d *Device) Monitor() *pcie.Monitor { return &d.mon }

// EventTraffic returns the traffic record of the launch or copy that just
// ended: its wire bytes, request sizes and transfer classes, the trace
// entries the device monitor kept from it and the count it dropped. Like
// the KernelStats a KernelDone hook receives, the record is device scratch
// and valid only for the duration of a KernelDone or CopyDone call.
func (d *Device) EventTraffic() *pcie.Monitor { return &d.ev }

// Clock returns the simulated time elapsed on this device.
func (d *Device) Clock() time.Duration { return d.clock }

// Total returns aggregate statistics over all launches and copies.
func (d *Device) Total() KernelStats { return d.total }

// RunStats returns the activity since the last BeginRun: the launches and
// copies of the run in flight (or of the last one, after EndRun). Every
// field is accumulated from zero at BeginRun, so a run's statistics are
// the same whatever the device ran before it.
func (d *Device) RunStats() KernelStats { return d.run }

// ResetStats clears the clock, the run and total statistics, and the
// monitor, but keeps allocations and UVM residency. Use ResetUVMResidency
// for a cold run.
func (d *Device) ResetStats() {
	d.clock = 0
	d.total = KernelStats{}
	d.run = KernelStats{}
	d.mon.Reset()
}

// ResetUVMResidency evicts all UVM pages so the next run starts cold, and
// refreshes the UVM capacity from current free GPU memory
// (System.ColdCaches routes through this).
func (d *Device) ResetUVMResidency() {
	d.uvmgr = uvm.NewManager(uvm.ConfigWithPaging(d.uvmCapacityPages(), d.cfg.GPUDrivenPaging))
}

// finish folds the per-size zero-copy request counts into the link roofline
// terms, converts the kernel's traffic into elapsed time, and advances the
// clock. zc holds the count of 32/64/96/128-byte zero-copy requests and cxl
// the same for requests served by the external CXL-class tier; the wire and
// tag seconds are derived here, after the chunk merge, so the float
// accumulation order — and therefore the simulated time — is independent of
// how the launch was partitioned across workers. workers is the worker
// count the launch used, reported to telemetry.
func (d *Device) finish(ks *KernelStats, zc, cxl *[zcSizeClasses]uint64, workers int) {
	var zcReqs uint64
	for i, n := range zc {
		if n == 0 {
			continue
		}
		zcReqs += n
		ks.WireSeconds += float64(n) * d.link.WireSeconds((i+1)*memsys.SectorBytes)
	}
	if zcReqs > 0 {
		ks.TagSeconds += float64(zcReqs) * d.link.TagSeconds()
	}
	d.chargeThrash(ks)
	// External-tier roofline: the CXL link is a separate physical channel,
	// so its occupancy drains in parallel with PCIe and contributes its own
	// stream, memory-service, and latency-critical-path terms. All exactly
	// zero (not just negligible) on two-tier systems.
	var cxlTime, cxlMemTime, cxlCrit float64
	if cxlT := d.cfg.Tiers.CXL(); cxlT != nil {
		var cxlReqs uint64
		for i, n := range cxl {
			if n == 0 {
				continue
			}
			cxlReqs += n
			ks.CXLWireSeconds += float64(n) * cxlT.Link.WireSeconds((i+1)*memsys.SectorBytes)
		}
		if cxlReqs > 0 {
			ks.CXLTagSeconds += float64(cxlReqs) * cxlT.Link.TagSeconds()
		}
		cxlTime = pcie.StreamSeconds(ks.CXLWireSeconds, ks.CXLTagSeconds)
		cxlMemTime = cxlT.Mem.ServiceSeconds(int64(ks.CXLMemBytes))
		cxlCrit = float64(ks.MaxWarpCXLReqs) * cxlT.Link.RTT.Seconds() /
			float64(d.cfg.PerWarpOutstanding)
	}
	pcieTime := pcie.StreamSeconds(ks.WireSeconds, ks.TagSeconds)
	hbmTime := d.hbm.ServiceSeconds(int64(ks.HBMBytes))
	dramTime := d.hostDRAM.ServiceSeconds(int64(ks.HostDRAMBytes))
	compTime := float64(ks.WarpInstrs) / d.cfg.WarpInstrPerSec
	// Latency-bound critical path: the busiest warp streams at most
	// PerWarpOutstanding requests per round trip.
	critTime := float64(ks.MaxWarpHostReqs) * d.link.RTT.Seconds() /
		float64(d.cfg.PerWarpOutstanding)
	bottleneck := pcieTime
	for _, t := range []float64{hbmTime, dramTime, compTime, ks.UVMSerialSeconds, critTime,
		cxlTime, cxlMemTime, cxlCrit} {
		if t > bottleneck {
			bottleneck = t
		}
	}
	ks.Elapsed = d.cfg.LaunchOverhead + time.Duration(bottleneck*float64(time.Second))
	if h := d.link.Faults; h != nil && ks.LatencySpikes > 0 {
		// Injected latency spikes stall the kernel serially. Derived here
		// from the merged integer count so the penalty — like the roofline
		// floats — is independent of the warp partitioning.
		ks.Elapsed += time.Duration(ks.LatencySpikes) * h.SpikePenalty()
	}
	start := d.clock
	d.clock += ks.Elapsed
	d.total.Add(ks)
	d.run.Add(ks)
	d.mon.Merge(&d.ev)
	d.mon.Sample(d.clock)
	if d.tel != nil {
		d.tel.KernelDone(d, ks, workers, d.maxWorkers(), start, d.clock)
	}
}

// chargeThrash applies the §3.3 cache-thrash model: per-lane zero-copy
// sector reuse (the warp MRU) only survives in L2 while the concurrent
// stream footprint fits. The surviving fraction scales the observed reuses
// into 32-byte re-fetch requests, charged to the link, host DRAM, and the
// traffic monitor exactly like first fetches.
func (d *Device) chargeThrash(ks *KernelStats) {
	if ks.ZCSectorReuses == 0 {
		return
	}
	streams := ks.ZCActiveLanes
	if hw := uint64(d.cfg.MaxConcurrentLanes); streams > hw {
		streams = hw
	}
	footprint := float64(streams) * float64(memsys.SectorBytes)
	missFrac := d.cfg.ThrashSensitivity * footprint / float64(d.cfg.L2Bytes)
	if missFrac > 1 {
		missFrac = 1
	}
	extra := uint64(float64(ks.ZCSectorReuses) * missFrac)
	if extra == 0 {
		return
	}
	ks.ZCRefetches = extra
	ks.PCIeRequests += extra
	ks.PCIePayloadBytes += extra * uint64(memsys.SectorBytes)
	ks.WireSeconds += float64(extra) * d.link.WireSeconds(memsys.SectorBytes)
	ks.TagSeconds += float64(extra) * d.link.TagSeconds()
	ks.HostDRAMBytes += extra * uint64(d.hostDRAM.ServedBytes(memsys.SectorBytes))
	d.ev.RecordClassN(memsys.SectorBytes, d.link.TLPOverheadBytes, extra, pcie.ClassZeroCopy)
}

// CopyToDevice models an explicit host-to-device bulk transfer of n bytes
// (e.g. Subway's subgraph upload). The transfer crosses the link at memcpy
// peak and is recorded by the monitor.
func (d *Device) CopyToDevice(n int64) time.Duration {
	return d.bulkLink(d.link, n, true, pcie.ClassBulk)
}

// CopyToHost models a device-to-host transfer of n bytes (result download,
// frontier flag readback).
func (d *Device) CopyToHost(n int64) time.Duration {
	return d.bulkLink(d.link, n, false, pcie.ClassBulk)
}

// StageSegments models the batched-copy transport substrate's round-boundary
// upload: n bytes of edge-list segments copied host-to-device at memcpy
// peak, attributed to the staged transfer class on the monitor so adaptive
// runs can show where their traffic went.
func (d *Device) StageSegments(n int64) time.Duration {
	return d.bulkLink(d.link, n, true, pcie.ClassStaged)
}

// StageSegmentsCXL is StageSegments for segments homed on the external
// CXL-class tier: the copy crosses the CXL link (its bulk rate, not
// PCIe's) and is attributed to the CXL transfer class.
func (d *Device) StageSegmentsCXL(n int64) time.Duration {
	return d.bulkLink(d.cxlLink(), n, true, pcie.ClassCXL)
}

// PromoteFromCXL models re-homing n bytes from the CXL-class tier into host
// DRAM (the adaptive policy's host-cache placement). The expander read over
// the CXL link is the bottleneck; the host-DRAM write is absorbed.
func (d *Device) PromoteFromCXL(n int64) time.Duration {
	return d.bulkLink(d.cxlLink(), n, true, pcie.ClassCXL)
}

// DemoteToCXL models re-homing n bytes from host DRAM into the CXL-class
// tier (explicit Request-level placement moves). The expander write over the
// CXL link is the bottleneck, mirroring PromoteFromCXL.
func (d *Device) DemoteToCXL(n int64) time.Duration {
	return d.bulkLink(d.cxlLink(), n, true, pcie.ClassCXL)
}

// cxlLink returns the external tier's link; devices without a CXL tier must
// not reach the CXL copy paths.
func (d *Device) cxlLink() pcie.LinkConfig {
	cxlT := d.cfg.Tiers.CXL()
	if cxlT == nil {
		panic("gpu: CXL transfer on a device with no CXL tier")
	}
	return cxlT.Link
}

// CopyToDeviceOverlapped models a host-to-device transfer of n bytes
// issued behind overlap of device work already on the clock (Subway's async
// chunk upload runs under the kernel it feeds; pass 0 for a serialized
// one). The copy crosses the link at memcpy peak with no driver overhead,
// and only the part of it the overlap does not hide advances the clock. It
// takes no bandwidth sample: the next launch's or copy's interval covers
// its bytes.
func (d *Device) CopyToDeviceOverlapped(n int64, overlap time.Duration) {
	dt := time.Duration(d.link.BulkSeconds(n)*float64(time.Second)) - overlap
	d.copyEvent(d.link, n, true, pcie.ClassBulk, max(dt, 0), false)
}

// bulkLink is the bulk-transfer core parameterized by the link crossed:
// the PCIe link for host DRAM traffic, the CXL link for external-tier
// staging and promotion.
func (d *Device) bulkLink(lnk pcie.LinkConfig, n int64, record bool, class pcie.TransferClass) time.Duration {
	dt := d.cfg.CopyOverhead + time.Duration(lnk.BulkSeconds(n)*float64(time.Second))
	d.copyEvent(lnk, n, record, class, dt, true)
	return dt
}

// copyEvent accounts one explicit transfer of n bytes over lnk as its own
// event: a recorded (host-to-device) copy goes on the monitor in class,
// the clock advances by dt, sample closes a bandwidth interval at the
// copy's end, and telemetry gets CopyDone.
func (d *Device) copyEvent(lnk pcie.LinkConfig, n int64, record bool, class pcie.TransferClass, dt time.Duration, sample bool) {
	if n < 0 {
		panic("gpu: negative copy size")
	}
	d.ev.BeginEvent(&d.mon)
	if record {
		d.ev.RecordBulkClass(n, lnk.TLPOverheadBytes, class)
	}
	start := d.clock
	d.advance(dt)
	d.mon.Merge(&d.ev)
	if sample {
		d.mon.Sample(d.clock)
	}
	if d.tel != nil {
		d.tel.CopyDone(d, record, n, start, d.clock)
	}
}

// EvictUVM drops UVM residency for every page overlapping [off, off+size)
// of buf — a partition leaving the UVM substrate — and returns the number
// evicted, which the device and run totals count like a launch's
// evictions.
func (d *Device) EvictUVM(buf *memsys.Buffer, off, size int64) uint64 {
	n := uint64(d.uvmgr.EvictRange(buf, off, size))
	d.total.UVMEvictions += n
	d.run.UVMEvictions += n
	return n
}

// CopyOnDevice models a device-to-device copy of src into dst
// (cudaMemcpyDeviceToDevice): the data moves at HBM bandwidth — one read
// plus one write of the payload — with no link traffic and no launch
// overhead (it is a stream operation). Both buffers must be GPU-resident.
func (d *Device) CopyOnDevice(dst, src *memsys.Buffer) {
	if dst.Space != memsys.SpaceGPU || src.Space != memsys.SpaceGPU {
		panic("gpu: CopyOnDevice requires GPU-resident buffers")
	}
	if dst.Size() < src.Size() {
		panic("gpu: CopyOnDevice destination smaller than source")
	}
	copy(dst.Data, src.Data)
	dt := time.Duration(d.hbm.ServiceSeconds(2*src.Size()) * float64(time.Second))
	d.advance(dt)
}

// Memset fills a GPU-resident buffer with v, modeling a cudaMemsetAsync:
// the cost is the buffer size at HBM bandwidth, with no launch overhead
// (it is a stream operation).
func (d *Device) Memset(b *memsys.Buffer, v byte) {
	for i := range b.Data {
		b.Data[i] = v
	}
	dt := time.Duration(d.hbm.ServiceSeconds(b.Size()) * float64(time.Second))
	d.advance(dt)
}

// HostCompute advances the clock by a host-side CPU cost (e.g. Subway's
// subgraph generation). It is serialized with device work.
func (d *Device) HostCompute(dt time.Duration) {
	if dt < 0 {
		panic("gpu: negative host compute time")
	}
	d.advance(dt)
}

// advance moves the clock by dt of non-kernel work (a copy, a memset, host
// compute), charging it to the device total and to the current run.
func (d *Device) advance(dt time.Duration) {
	d.clock += dt
	d.total.Elapsed += dt
	d.run.Elapsed += dt
}
