package pcie

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// TransferClass labels why bytes crossed the link, so the monitor can
// attribute traffic to the transport substrate that generated it. The
// transport-policy layer uses the split to show where an adaptive run's
// traffic went (per-request zero-copy reads vs. UVM page migrations vs.
// explicit segment staging vs. plain memcpys).
type TransferClass uint8

const (
	// ClassZeroCopy is individual coalesced zero-copy reads/writes.
	ClassZeroCopy TransferClass = iota
	// ClassUVM is page-migration bulk traffic from the UVM manager.
	ClassUVM
	// ClassStaged is explicit segment staging by the batched-copy substrate.
	ClassStaged
	// ClassBulk is ordinary explicit copies (result downloads, uploads).
	ClassBulk
	// ClassCXL is traffic crossing the external CXL-class tier's link:
	// coalesced reads against CXL-homed segments and page/segment
	// migrations in or out of the tier.
	ClassCXL

	numTransferClasses
)

// String returns the class label used in snapshots and metrics.
func (c TransferClass) String() string {
	switch c {
	case ClassZeroCopy:
		return "zerocopy"
	case ClassUVM:
		return "uvm"
	case ClassStaged:
		return "staged"
	case ClassBulk:
		return "bulk"
	case ClassCXL:
		return "cxl"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Monitor observes the request stream crossing the link, playing the role
// of the paper's FPGA-based PCIe traffic monitor (§3.2): it records request
// counts by size, payload and wire bytes, and the sampled bandwidth,
// without perturbing the stream.
type Monitor struct {
	sizeHist  stats.Histogram
	wireBytes uint64

	// per-transfer-class payload-byte attribution
	classBytes [numTransferClasses]uint64

	// interval state for bandwidth sampling, and the payload bytes and
	// time of every closed interval so far
	intervalBytes uint64
	intervalStart time.Duration
	sampledBytes  uint64
	sampledTime   time.Duration

	// bounded raw request trace (see EnableTrace and BeginEvent): while
	// tracing, at most traceLimit entries are kept and the rest counted
	// as dropped
	tracing      bool
	trace        []TraceEntry
	traceLimit   int
	traceDropped uint64
}

// Record notes one request of the given payload size with the given wire
// overhead bytes.
func (m *Monitor) Record(payloadBytes, overheadBytes int) {
	m.RecordClassN(payloadBytes, overheadBytes, 1, ClassZeroCopy)
}

// RecordClassN notes n identical requests of the given payload size and
// wire overhead bytes in the given transfer class: ClassZeroCopy for
// host-pinned reads, ClassCXL for coalesced reads served by the external
// tier's link.
func (m *Monitor) RecordClassN(payloadBytes, overheadBytes int, n uint64, class TransferClass) {
	if n == 0 {
		return
	}
	m.sizeHist.AddN(int64(payloadBytes), n)
	m.wireBytes += n * uint64(payloadBytes+overheadBytes)
	m.intervalBytes += n * uint64(payloadBytes)
	m.classBytes[class] += n * uint64(payloadBytes)
	m.traceAddN(payloadBytes, false, n)
}

// RecordBulkClass notes a bulk (DMA) transfer of n payload bytes moved as
// maximum-size requests in the given transfer class: ClassBulk for a
// cudaMemcpy, ClassUVM for page migrations, ClassStaged for segment
// staging copies.
func (m *Monitor) RecordBulkClass(n int64, overheadBytes int, class TransferClass) {
	if n <= 0 {
		return
	}
	full := n / 128
	if full > 0 {
		m.sizeHist.AddN(128, uint64(full))
		m.wireBytes += uint64(full) * uint64(128+overheadBytes)
		m.intervalBytes += uint64(full) * 128

		m.classBytes[class] += uint64(full) * 128
		m.traceAddN(128, true, uint64(full))
	}
	if rem := n % 128; rem != 0 {
		m.sizeHist.Add(rem)
		m.wireBytes += uint64(rem) + uint64(overheadBytes)
		m.intervalBytes += uint64(rem)

		m.classBytes[class] += uint64(rem)
		m.traceAdd(int(rem), true)
	}
}

// Sample closes the current bandwidth-sampling interval at simulated time
// now. Intervals are typically kernel launches; a zero-width interval
// samples nothing and its bytes are dropped.
func (m *Monitor) Sample(now time.Duration) {
	if elapsed := now - m.intervalStart; elapsed > 0 {
		m.sampledBytes += m.intervalBytes
		m.sampledTime += elapsed
	}
	m.intervalStart = now
	m.intervalBytes = 0
}

// Requests returns the total number of requests observed.
func (m *Monitor) Requests() uint64 { return m.sizeHist.Total() }

// PayloadBytes returns the total payload bytes observed.
func (m *Monitor) PayloadBytes() uint64 { return uint64(m.sizeHist.Sum()) }

// WireBytes returns the total wire bytes (payload + per-request overhead).
func (m *Monitor) WireBytes() uint64 { return m.wireBytes }

// SizeFraction returns the fraction of requests with the given payload size.
func (m *Monitor) SizeFraction(size int) float64 {
	return m.sizeHist.Fraction(int64(size))
}

// AverageBandwidth returns the time-weighted mean of the sampled bandwidth:
// since each sample covers exactly the interval since the previous one,
// that is the sampled bytes over the sampled time. It is 0 before the
// first non-empty interval.
func (m *Monitor) AverageBandwidth() float64 {
	if m.sampledTime <= 0 {
		return 0
	}
	return float64(m.sampledBytes) / m.sampledTime.Seconds()
}

// Reset clears all observations — counters, samples, recorded trace
// entries, and the dropped-entry count — keeping the trace configuration.
func (m *Monitor) Reset() {
	m.sizeHist.Reset()
	m.wireBytes = 0
	m.intervalBytes = 0
	m.intervalStart = 0
	m.sampledBytes = 0
	m.sampledTime = 0

	m.classBytes = [numTransferClasses]uint64{}
	m.traceDropped = 0
	m.trace = m.trace[:0]
}

// BeginEvent clears m to record one event (a launch or a copy) that will be
// merged into parent: counters zeroed, and tracing on exactly when parent
// traces, bounded by the room parent's trace has left. Merging m into
// parent then keeps every entry m kept and drops every entry m dropped, so
// m's trace and drop count are the event's own share of parent's.
func (m *Monitor) BeginEvent(parent *Monitor) {
	m.Reset()
	m.tracing = parent.tracing
	m.traceLimit = parent.traceLimit - len(parent.trace)
}

// Merge folds all of other into m, as if m had recorded other's requests
// itself: the counts, then other's whole trace.
func (m *Monitor) Merge(other *Monitor) {
	m.MergeCounts(other)
	m.MergeTrace(other, 0, other.Offered())
}

// MergeCounts folds the counting state of another monitor into m: the
// size histogram, wire bytes and per-class attribution. Trace entries are
// merged separately by MergeTrace, so a caller can splice its own records
// between spans of other's trace. Bandwidth samples are not merged (they
// are per-device observations).
func (m *Monitor) MergeCounts(other *Monitor) {
	m.sizeHist.Merge(&other.sizeHist)
	m.wireBytes += other.wireBytes
	m.intervalBytes += other.intervalBytes
	for c := TransferClass(0); c < numTransferClasses; c++ {

		m.classBytes[c] += other.classBytes[c]
	}
}

// MergeTrace appends the entries offered to other's trace at positions
// [lo, hi) of its arrival order, truncated at m's own trace limit. Entries
// that do not fit — and those other itself dropped — are added to m's
// dropped count when m is tracing, so the invariant "entries kept + entries
// dropped = entries offered" holds across the parallel launch engine's
// chunk merge exactly as it does on the serial path.
func (m *Monitor) MergeTrace(other *Monitor, lo, hi uint64) {
	if !m.tracing || hi <= lo {
		return
	}
	kept := uint64(len(other.trace))
	if lo < kept {
		span := other.trace[lo:min(hi, kept)]
		fit := span[:min(len(span), m.traceLimit-len(m.trace))]
		m.trace = append(m.trace, fit...)
		m.traceDropped += uint64(len(span) - len(fit))
	}
	if hi > kept {
		m.traceDropped += hi - max(lo, kept)
	}
}

// Offered returns the number of entries offered to the trace so far: those
// kept plus those dropped (0 when tracing is off). It is the position the
// next entry takes in the arrival order, as MergeTrace counts it.
func (m *Monitor) Offered() uint64 { return uint64(len(m.trace)) + m.traceDropped }

// Snapshot is an immutable summary of a monitor's counters, suitable for
// attaching to experiment results.
type Snapshot struct {
	Requests     uint64
	PayloadBytes uint64
	WireBytes    uint64
	BySize       map[int64]uint64
	ByClass      map[string]uint64 // payload bytes per transfer class (non-zero only)
	AvgBandwidth float64
}

// Snapshot captures the monitor's current counters.
func (m *Monitor) Snapshot() Snapshot {
	by := make(map[int64]uint64)
	for _, k := range m.sizeHist.Keys() {
		by[k] = m.sizeHist.Count(k)
	}
	byClass := make(map[string]uint64)
	for c := TransferClass(0); c < numTransferClasses; c++ {
		if m.classBytes[c] > 0 {
			byClass[c.String()] = m.classBytes[c]
		}
	}
	return Snapshot{
		Requests:     m.Requests(),
		PayloadBytes: m.PayloadBytes(),
		WireBytes:    m.WireBytes(),
		BySize:       by,
		ByClass:      byClass,
		AvgBandwidth: m.AverageBandwidth(),
	}
}

// Delta returns the growth from before, an earlier snapshot of the same
// monitor, to s: the request and byte counters are differenced, BySize
// keeps only the sizes that grew, and AvgBandwidth is s's own (a rate, not
// a counter). ByClass is left nil.
func (s Snapshot) Delta(before Snapshot) Snapshot {
	by := make(map[int64]uint64)
	for k, v := range s.BySize {
		if d := v - before.BySize[k]; d > 0 {
			by[k] = d
		}
	}
	return Snapshot{
		Requests:     s.Requests - before.Requests,
		PayloadBytes: s.PayloadBytes - before.PayloadBytes,
		WireBytes:    s.WireBytes - before.WireBytes,
		BySize:       by,
		AvgBandwidth: s.AvgBandwidth,
	}
}

// String renders the snapshot compactly for logs and test output.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reqs=%d payload=%d wire=%d", s.Requests, s.PayloadBytes, s.WireBytes)
	keys := make([]int64, 0, len(s.BySize))
	for k := range s.BySize {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Fprintf(&b, " %dB:%d", k, s.BySize[k])
	}
	return b.String()
}

// TraceEntry is one recorded request: payload size in bytes and whether it
// was part of a bulk (DMA) transfer rather than an individual zero-copy
// read.
type TraceEntry struct {
	Size int32
	Bulk bool
}

// EnableTrace starts recording up to limit individual request entries —
// the raw stream view the paper's FPGA exposes, bounded so long runs don't
// accumulate unbounded memory. Once the buffer holds limit entries, further
// requests are silently truncated from the trace (their counters are still
// recorded); the number truncated is available from TraceDropped, and the
// telemetry collector exports it as emogi_pcie_trace_dropped_total so a
// clipped trace is never mistaken for the full stream. Passing 0 disables
// tracing. Enabling (or re-enabling) resets both the buffer and the
// dropped count.
func (m *Monitor) EnableTrace(limit int) {
	m.tracing = limit > 0
	m.traceLimit = max(limit, 0)
	m.traceDropped = 0
	if m.tracing {
		m.trace = make([]TraceEntry, 0, min(limit, 4096))
	} else {
		m.trace = nil
	}
}

// Trace returns the recorded entries in arrival order. The returned slice
// is shared with the monitor and must not be mutated.
func (m *Monitor) Trace() []TraceEntry { return m.trace }

// TraceDropped returns the number of requests truncated from the trace
// because the buffer was already at its limit (always 0 when tracing is
// off).
func (m *Monitor) TraceDropped() uint64 { return m.traceDropped }

// traceAdd records one entry if tracing is on, counting it as dropped when
// the buffer is full.
func (m *Monitor) traceAdd(size int, bulk bool) {
	m.traceAddN(size, bulk, 1)
}

// traceAddN records n identical entries, keeping as many as fit under the
// limit and counting the rest as dropped.
func (m *Monitor) traceAddN(size int, bulk bool, n uint64) {
	if !m.tracing || n == 0 {
		return
	}
	keep := n
	if space := uint64(m.traceLimit - len(m.trace)); keep > space {
		keep = space
	}
	for i := uint64(0); i < keep; i++ {
		m.trace = append(m.trace, TraceEntry{Size: int32(size), Bulk: bulk})
	}
	m.traceDropped += n - keep
}
