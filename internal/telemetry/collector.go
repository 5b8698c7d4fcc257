package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/gpu"
)

// Collector implements gpu.Telemetry: it folds every simulated quantity
// into a Registry (Prometheus counters, gauges, and the request-size
// histogram) and, when a Tracer is attached, into the Chrome-trace
// timeline. It reads only what each event carries — a launch's
// KernelStats, the launch's or copy's own traffic record
// (Device.EventTraffic), a decision's moves — and adds it, so it keeps no
// baseline of any device counter and device resets (ResetStats,
// ColdCaches) need no handling. One Collector may observe any number of
// devices.
//
// Counters carry the run's app / graph / transport / variant labels (set by
// the core round loops via Device.BeginRun); device-level gauges carry a
// device label instead.
type Collector struct {
	mu     sync.Mutex
	reg    *Registry
	tracer *Tracer

	devs map[*gpu.Device]*devState
	util map[string]*utilAcc // worker utilization accumulators per label set

	// bound is the request trace currently attributed device events.
	// Binding happens under the device's exclusive run lock (see
	// System.Do), so at most one run — and one trace — is active at a time.
	bound *RequestTrace
}

// devState is the per-device state: its identity and current run labels.
type devState struct {
	name   string // unique trace/gauge identity: "<config name> #<n>"
	labels gpu.RunLabels
}

// utilAcc accumulates launch-engine worker usage for one label set.
type utilAcc struct {
	used  uint64 // worker goroutines that ran, summed over launches
	avail uint64 // workers the device could have used, summed over launches
}

// NewCollector creates a collector writing metrics into reg and, when
// tracer is non-nil, events into the timeline.
func NewCollector(reg *Registry, tracer *Tracer) *Collector {
	if reg == nil {
		reg = NewRegistry()
	}
	// Pre-register every (partition_class, choice) combination so scrapes
	// see the transport-decision schema deterministically, zeros included.
	for _, class := range []string{"hot", "warm", "cold"} {
		for _, choice := range []string{"zerocopy", "uvm", "staged"} {
			transportDecisionCounter(reg, class, choice)
		}
	}
	return &Collector{
		reg:    reg,
		tracer: tracer,
		devs:   make(map[*gpu.Device]*devState),
		util:   make(map[string]*utilAcc),
	}
}

// transportDecisionCounter returns the emogi_transport_decisions_total
// series for one (density class, substrate choice) pair.
func transportDecisionCounter(reg *Registry, class, choice string) *Counter {
	return reg.Counter("emogi_transport_decisions_total",
		"Transport-policy partition rebinds by access-density class and chosen substrate.",
		Labels{"partition_class": class, "choice": choice})
}

// Registry returns the registry the collector writes into.
func (c *Collector) Registry() *Registry { return c.reg }

// state returns the per-device state, creating it on first sight. Callers
// hold c.mu.
func (c *Collector) state(dev *gpu.Device) *devState {
	st, ok := c.devs[dev]
	if !ok {
		st = &devState{name: fmt.Sprintf("%s #%d", dev.Config().Name, len(c.devs)+1)}
		c.devs[dev] = st
	}
	return st
}

// runLabels renders the device's current run labels for counter series.
func (st *devState) runLabels() Labels {
	return Labels{
		"app":       st.labels.App,
		"graph":     st.labels.Graph,
		"transport": st.labels.Transport,
		"variant":   st.labels.Variant,
	}
}

// sizeBuckets are the request-size histogram bounds: the four coalesced
// zero-copy sizes (paper Figure 3) plus one page, catching UVM migration
// bulk requests and odd bulk remainders.
var sizeBuckets = []float64{32, 64, 96, 128, 4096}

// RunBegin implements gpu.Telemetry.
func (c *Collector) RunBegin(dev *gpu.Device, labels gpu.RunLabels) {
	c.mu.Lock()
	st := c.state(dev)
	st.labels = labels
	ls := st.runLabels()
	c.mu.Unlock()
	c.reg.Counter("emogi_runs_total",
		"Traversal runs started.", ls).Inc()
}

// RunEnd implements gpu.Telemetry.
func (c *Collector) RunEnd(dev *gpu.Device) {
	c.mu.Lock()
	c.state(dev).labels = gpu.RunLabels{}
	c.mu.Unlock()
}

// KernelDone implements gpu.Telemetry: it folds one launch's KernelStats
// and traffic record into the registry, and appends the kernel (and any
// UVM migration burst) to the timeline.
func (c *Collector) KernelDone(dev *gpu.Device, ks *gpu.KernelStats, workers, maxWorkers int, start, end time.Duration) {
	c.mu.Lock()
	st := c.state(dev)
	ls := st.runLabels()

	ua, ok := c.util[labelKey(ls)]
	if !ok {
		ua = &utilAcc{}
		c.util[labelKey(ls)] = ua
	}
	ua.used += uint64(workers)
	ua.avail += uint64(maxWorkers)
	utilization := float64(ua.used) / float64(ua.avail)
	devName := st.name
	c.mu.Unlock()

	reg := c.reg
	reg.Counter("emogi_kernel_launches_total",
		"Kernel launches completed.", ls).Inc()
	reg.Counter("emogi_kernel_warps_total",
		"Warps executed across kernel launches.", ls).Add(uint64(ks.Warps))
	reg.Counter("emogi_warp_instructions_total",
		"Warp instructions executed.", ls).Add(ks.WarpInstrs)
	reg.FloatCounter("emogi_kernel_sim_seconds_total",
		"Simulated kernel time, including launch overhead.", ls).Add(ks.Elapsed.Seconds())
	reg.Counter("emogi_hbm_bytes_total",
		"GPU global memory bytes moved by kernels.", ls).Add(ks.HBMBytes)
	reg.Counter("emogi_host_dram_bytes_total",
		"Host DRAM bytes served (includes 64B burst rounding).", ls).Add(ks.HostDRAMBytes)
	reg.Counter("emogi_pcie_requests_total",
		"Individual zero-copy PCIe read requests issued by kernels.", ls).Add(ks.PCIeRequests)
	reg.Counter("emogi_pcie_payload_bytes_total",
		"PCIe payload bytes issued by kernels (zero-copy reads plus UVM migrations).", ls).Add(ks.PCIePayloadBytes)
	reg.Counter("emogi_uvm_migrations_total",
		"UVM pages migrated host to GPU during kernels.", ls).Add(ks.UVMMigrations)
	reg.Counter("emogi_uvm_page_hits_total",
		"Kernel accesses served from already-resident UVM pages.", ls).Add(ks.UVMHits)
	reg.Counter("emogi_zc_refetches_total",
		"Zero-copy sector re-fetches charged by the L2 thrash model.", ls).Add(ks.ZCRefetches)
	reg.Counter("emogi_reorder_merged_requests_total",
		"Off-device requests eliminated by the coalescer's reorder window.", ls).Add(ks.ReorderMerged)
	reg.Counter("emogi_reorder_flushes_total",
		"Reorder window drains (warp ends and capacity flushes).", ls).Add(ks.ReorderFlushes)
	reg.Counter("emogi_reorder_window_sectors_total",
		"Buffered 32B sectors summed over reorder flushes; divide by flushes for mean window occupancy.", ls).Add(ks.ReorderWindowSectors)
	reg.Counter("emogi_launch_worker_shards_total",
		"Worker goroutines used, summed over launches.", ls).Add(uint64(workers))
	reg.Gauge("emogi_launch_worker_utilization_ratio",
		"Workers used over workers available, averaged over launches.", ls).Set(utilization)

	c.foldTraffic(ls, devName, dev)
	// Every migrated page is one fault: the UVM model has no fault that
	// moves nothing.
	reg.Counter("emogi_uvm_faults_total",
		"UVM page faults taken.", ls).Add(ks.UVMMigrations)
	uvmEvictions(reg, ls).Add(ks.UVMEvictions)

	if c.tracer != nil {
		c.tracer.Kernel(devName, ks.Name, start, end, map[string]any{
			"warps":          ks.Warps,
			"workers":        workers,
			"pcie_req_count": ks.PCIeRequests,
			"payload_bytes":  ks.PCIePayloadBytes,
			"hbm_bytes":      ks.HBMBytes,
		}, dev.EventTraffic().Trace())
		if ks.UVMMigrations > 0 {
			pageBytes := uint64(dev.UVM().Config().PageBytes)
			c.tracer.UVMBurst(devName, ks.UVMMigrations, ks.UVMEvictions,
				ks.UVMMigrations*pageBytes, start, end)
		}
	}
}

// uvmEvictions returns the emogi_uvm_evictions_total series for one run's
// labels: fed by launches' evictions and by transport-policy rebinds.
func uvmEvictions(reg *Registry, ls Labels) *Counter {
	return reg.Counter("emogi_uvm_evictions_total",
		"UVM pages evicted from GPU memory.", ls)
}

// CopyDone implements gpu.Telemetry.
func (c *Collector) CopyDone(dev *gpu.Device, toDevice bool, bytes int64, start, end time.Duration) {
	c.mu.Lock()
	st := c.state(dev)
	ls := st.runLabels()
	devName := st.name
	c.mu.Unlock()

	dir := "d2h"
	if toDevice {
		dir = "h2d"
	}
	lsDir := Labels{"direction": dir}
	for k, v := range ls {
		lsDir[k] = v
	}
	c.reg.Counter("emogi_copy_bytes_total",
		"Explicit bulk transfer payload bytes by direction.", lsDir).Add(uint64(bytes))
	c.foldTraffic(ls, devName, dev)

	if c.tracer != nil {
		c.tracer.Copy(devName, toDevice, bytes, start, end)
	}
}

// RoundDone implements gpu.Telemetry.
func (c *Collector) RoundDone(dev *gpu.Device, name string, round int, start, end time.Duration) {
	c.mu.Lock()
	st := c.state(dev)
	ls := st.runLabels()
	devName := st.name
	rt := c.bound
	c.mu.Unlock()

	c.reg.Counter("emogi_rounds_total",
		"Traversal rounds (BFS levels, SSSP/CC relaxation sweeps) completed.", ls).Inc()
	rt.Round(name, round, start, end)
	if c.tracer != nil {
		c.tracer.Round(devName, name, round, start, end)
	}
}

// TransportDecisions implements gpu.TransportDecisionSink: each decided
// round on a routed run feeds the emogi_transport_decisions_total counter,
// the UVM pages its rebinds evicted feed emogi_uvm_evictions_total, and —
// while a request trace is bound — the round gets a "transport-decide"
// entry on that request's round timeline, plus a transport-track slice in
// the Chrome timeline.
func (c *Collector) TransportDecisions(dev *gpu.Device, round int, moves []gpu.TransportMove, start, end time.Duration) {
	c.mu.Lock()
	st := c.state(dev)
	ls := st.runLabels()
	devName := st.name
	rt := c.bound
	c.mu.Unlock()

	var evicted uint64
	for _, mv := range moves {
		transportDecisionCounter(c.reg, mv.PartitionClass, mv.Choice).Add(mv.Count)
		evicted += mv.Evictions
	}
	if evicted > 0 {
		uvmEvictions(c.reg, ls).Add(evicted)
	}
	detail := transportMovesDetail(moves)
	rt.Decision(round, detail, start, end)
	if c.tracer != nil {
		c.tracer.TransportDecision(devName, round, detail, start, end)
	}
}

// transportMovesDetail renders a move group compactly, e.g.
// "hot>staged x3, cold>zerocopy x12".
func transportMovesDetail(moves []gpu.TransportMove) string {
	var b strings.Builder
	for i, mv := range moves {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s>%s x%d", mv.PartitionClass, mv.Choice, mv.Count)
	}
	return b.String()
}

// BindTrace implements TraceBinder: round events are attributed to rt
// until UnbindTrace. The System calls this under the device's exclusive
// run lock, so bindings never overlap.
func (c *Collector) BindTrace(rt *RequestTrace) {
	c.mu.Lock()
	c.bound = rt
	c.mu.Unlock()
}

// UnbindTrace implements TraceBinder.
func (c *Collector) UnbindTrace() {
	c.mu.Lock()
	c.bound = nil
	c.mu.Unlock()
}

// foldTraffic writes the traffic record of the launch or copy that just
// ended on dev into the registry — wire bytes, the request-size histogram,
// trace drops — and sets the device's time-weighted bandwidth gauge from
// its monitor.
func (c *Collector) foldTraffic(ls Labels, devName string, dev *gpu.Device) {
	traffic := dev.EventTraffic()
	reg := c.reg
	reg.Counter("emogi_pcie_wire_bytes_total",
		"PCIe wire bytes (payload plus per-request TLP overhead) crossing the link.", ls).Add(traffic.WireBytes())
	reg.Counter("emogi_pcie_trace_dropped_total",
		"Raw request trace entries truncated at the monitor's EnableTrace limit.", ls).Add(traffic.TraceDropped())
	hist := reg.Histogram("emogi_pcie_request_size_bytes",
		"PCIe request payload sizes observed by the traffic monitor.", sizeBuckets, ls)
	for size, n := range traffic.Snapshot().BySize {
		hist.ObserveN(float64(size), n)
	}
	reg.Gauge("emogi_pcie_bandwidth_bytes_per_second",
		"Time-weighted mean PCIe payload bandwidth since the device's last stats reset.",
		Labels{"device": devName}).Set(dev.Monitor().AverageBandwidth())
}
