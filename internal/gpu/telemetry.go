package gpu

import (
	"runtime"
	"time"
)

// This file is the device's telemetry attachment point. The simulator's
// observability subsystem (internal/telemetry) implements Telemetry; the
// device calls the hooks at well-defined points of the simulated timeline.
// A nil Telemetry is the default and costs nothing: every hook site is a
// single nil check with no allocation, so the bit-for-bit determinism
// guarantee of the parallel launch engine (DESIGN.md §7) and the hot-path
// allocation profile are untouched when telemetry is disabled.

// RunLabels identifies the traversal run in flight on a device, used to
// attribute kernel launches, copies, and rounds to an (app, variant,
// transport, graph) series.
type RunLabels struct {
	App       string // "BFS", "SSSP", "CC", "toy", ...
	Variant   string // kernel access variant, e.g. "Merged+Aligned"
	Transport string // "zerocopy", "uvm", a routed policy's name, or "bulk" (Subway)
	Graph     string // dataset name
}

// Telemetry receives simulator events. Implementations must be safe for
// concurrent use when multiple devices share one sink; hooks on a single
// device are always invoked sequentially from the device's own goroutine
// (never from launch workers). All timestamps are simulated device time.
type Telemetry interface {
	// RunBegin marks the start of a traversal run; subsequent events on dev
	// carry these labels until RunEnd.
	RunBegin(dev *Device, labels RunLabels)

	// RunEnd marks the end of the current traversal run on dev.
	RunEnd(dev *Device)

	// KernelDone fires once per kernel launch, after the launch's stats are
	// merged, its traffic folded into the device monitor and the clock
	// advanced. workers is the worker-goroutine count the launch actually
	// used; maxWorkers is the count the device was configured for (a
	// serial-forced launch reports workers < maxWorkers). start and end
	// bound the launch on the simulated clock. ks is the device's launch
	// scratch and dev.EventTraffic() the launch's own link traffic: both
	// are valid only for the duration of the call.
	KernelDone(dev *Device, ks *KernelStats, workers, maxWorkers int, start, end time.Duration)

	// CopyDone fires once per explicit bulk transfer (CopyToDevice,
	// CopyToHost, segment staging and CXL moves, Subway's overlapped
	// uploads). toDevice is the direction; bytes is the payload size.
	// dev.EventTraffic() holds the copy's own link traffic, valid only for
	// the duration of the call.
	CopyDone(dev *Device, toDevice bool, bytes int64, start, end time.Duration)

	// RoundDone fires once per traversal round (one BFS level, one SSSP/CC
	// relaxation sweep), spanning the round's flag clear, kernel, and flag
	// readback on the simulated clock.
	RoundDone(dev *Device, name string, round int, start, end time.Duration)
}

// TransportMove summarizes one group of same-shaped transport-policy
// decisions in a round: n partitions of the given access-density class moved
// to (or were confirmed on) the given substrate choice, evicting the UVM
// pages of those that left the UVM substrate.
type TransportMove struct {
	PartitionClass string // density class: "hot", "warm", or "cold"
	Choice         string // substrate: "zerocopy", "uvm", or "staged"
	Count          uint64
	Evictions      uint64 // UVM pages dropped by the group's rebinds (Device.EvictUVM)
}

// TransportDecisionSink is an optional extension of Telemetry: sinks that
// also implement it receive the transport-policy layer's per-round partition
// decisions (the telemetry collector turns them into the
// emogi_transport_decisions_total counter and per-round decision spans). The
// engine discovers it by type assertion on the attached Telemetry, the same
// pattern the request tracer uses, so plain sinks need no stub methods.
type TransportDecisionSink interface {
	// TransportDecisions fires once per decided round on routed runs. moves
	// holds only non-empty groups; start and end bound the decision point —
	// including any staging copies it charged — on the simulated clock.
	TransportDecisions(dev *Device, round int, moves []TransportMove, start, end time.Duration)
}

// EmitTransportDecisions forwards a decided round to the attached sink if it
// implements TransportDecisionSink; otherwise it is a no-op.
func (d *Device) EmitTransportDecisions(round int, moves []TransportMove, start, end time.Duration) {
	if s, ok := d.tel.(TransportDecisionSink); ok {
		s.TransportDecisions(d, round, moves, start, end)
	}
}

// SetTelemetry attaches a telemetry sink to the device (nil detaches).
func (d *Device) SetTelemetry(t Telemetry) { d.tel = t }

// Telemetry returns the attached sink, or nil when telemetry is disabled.
func (d *Device) Telemetry() Telemetry { return d.tel }

// BeginRun starts a traversal run: it zeroes the run statistics that
// RunStats returns, advances the device's run epoch, and reports the run to
// the attached telemetry sink. It does not allocate.
func (d *Device) BeginRun(labels RunLabels) {
	d.run = KernelStats{}
	d.runEpoch++
	if d.tel != nil {
		d.tel.RunBegin(d, labels)
	}
}

// EndRun reports the end of the current traversal run.
func (d *Device) EndRun() {
	if d.tel != nil {
		d.tel.RunEnd(d)
	}
}

// EmitRound reports one completed traversal round that started at the given
// simulated time and ends at the current clock.
func (d *Device) EmitRound(name string, round int, start time.Duration) {
	if d.tel != nil {
		d.tel.RoundDone(d, name, round, start, d.clock)
	}
}

// maxWorkers resolves the worker count the device is configured to use for
// parallel-eligible launches (the denominator of worker utilization).
func (d *Device) maxWorkers() int {
	n := d.cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}
