package pcie

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMonitorRecord(t *testing.T) {
	var m Monitor
	m.Record(32, 24)
	m.Record(128, 24)
	m.Record(128, 24)
	if got := m.Requests(); got != 3 {
		t.Errorf("Requests = %d, want 3", got)
	}
	if got := m.PayloadBytes(); got != 288 {
		t.Errorf("PayloadBytes = %d, want 288", got)
	}
	if got := m.WireBytes(); got != 288+3*24 {
		t.Errorf("WireBytes = %d, want %d", got, 288+3*24)
	}
	if got := m.SizeFraction(128); got != 2.0/3.0 {
		t.Errorf("SizeFraction(128) = %v, want 2/3", got)
	}
}

func TestMonitorRecordBulk(t *testing.T) {
	var m Monitor
	m.RecordBulkClass(4096, 24, ClassBulk)
	if got := m.Requests(); got != 32 {
		t.Errorf("4KB bulk should be 32 x 128B requests, got %d", got)
	}
	if got := m.PayloadBytes(); got != 4096 {
		t.Errorf("PayloadBytes = %d, want 4096", got)
	}
	m.Reset()
	m.RecordBulkClass(200, 24, ClassBulk)
	// 200 = 128 + 72
	if m.Requests() != 2 || m.PayloadBytes() != 200 {
		t.Errorf("bulk 200B: reqs=%d payload=%d", m.Requests(), m.PayloadBytes())
	}
	if m.Snapshot().BySize[72] != 1 {
		t.Errorf("remainder request not recorded")
	}
	m.Reset()
	m.RecordBulkClass(0, 24, ClassBulk)
	m.RecordBulkClass(-5, 24, ClassBulk)
	if m.Requests() != 0 {
		t.Errorf("non-positive bulk should be no-op")
	}
}

func TestMonitorBandwidthSampling(t *testing.T) {
	var m Monitor
	m.Record(128, 0)
	m.Record(128, 0)
	m.Sample(1 * time.Microsecond) // 256 B over 1us = 256 MB/s
	m.Record(128, 0)
	m.Sample(2 * time.Microsecond) // 128 B over 1us = 128 MB/s
	if got := m.AverageBandwidth(); got != 192e6 {
		t.Errorf("AverageBandwidth = %v, want 192e6", got)
	}
}

func TestMonitorSampleZeroElapsed(t *testing.T) {
	var m Monitor
	m.Record(32, 0)
	m.Sample(0) // zero-width interval must not panic or record
	if got := m.AverageBandwidth(); got != 0 {
		t.Errorf("AverageBandwidth after a zero-width interval = %v, want 0", got)
	}
	// The zero-width interval's bytes are dropped, not carried into the
	// next one, and a later zero-width interval does not dilute the mean.
	m.Record(64, 0)
	m.Sample(time.Microsecond)
	m.Record(32, 0)
	m.Sample(time.Microsecond)
	if got := m.AverageBandwidth(); got != 64e6 {
		t.Errorf("AverageBandwidth = %v, want 64e6", got)
	}
}

func TestMonitorReset(t *testing.T) {
	var m Monitor
	m.Record(64, 24)
	m.Sample(time.Microsecond)
	m.Reset()
	if m.Requests() != 0 || m.WireBytes() != 0 || m.AverageBandwidth() != 0 {
		t.Errorf("Reset did not clear state")
	}
}

func TestMonitorMerge(t *testing.T) {
	var a, b Monitor
	a.Record(32, 24)
	b.Record(128, 24)
	b.Record(128, 24)
	a.MergeCounts(&b)
	if a.Requests() != 3 {
		t.Errorf("merged Requests = %d, want 3", a.Requests())
	}
	if a.PayloadBytes() != 288 {
		t.Errorf("merged PayloadBytes = %d, want 288", a.PayloadBytes())
	}
}

func TestSnapshot(t *testing.T) {
	var m Monitor
	m.Record(32, 24)
	m.Record(128, 24)
	s := m.Snapshot()
	if s.Requests != 2 || s.PayloadBytes != 160 {
		t.Errorf("snapshot counters wrong: %+v", s)
	}
	if s.BySize[32] != 1 || s.BySize[128] != 1 {
		t.Errorf("snapshot BySize wrong: %+v", s.BySize)
	}
	str := s.String()
	for _, want := range []string{"reqs=2", "32B:1", "128B:1"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	var m Monitor
	m.Record(32, 24)
	m.RecordBulkClass(256, 24, ClassBulk)
	m.Sample(time.Microsecond)
	before := m.Snapshot()
	m.Record(32, 24)
	m.Record(64, 24)
	m.Sample(2 * time.Microsecond)
	now := m.Snapshot()
	d := now.Delta(before)
	if d.Requests != 2 || d.PayloadBytes != 96 || d.WireBytes != 96+2*24 {
		t.Errorf("delta counters wrong: %+v", d)
	}
	if len(d.BySize) != 2 || d.BySize[32] != 1 || d.BySize[64] != 1 {
		t.Errorf("delta BySize = %v, want only the grown sizes", d.BySize)
	}
	if d.AvgBandwidth != now.AvgBandwidth {
		t.Errorf("delta AvgBandwidth = %v, want the later snapshot's %v", d.AvgBandwidth, now.AvgBandwidth)
	}
}

// Property: conservation — the histogram total always equals Requests and
// payload bytes always equal the histogram weighted sum, regardless of the
// mix of Record and RecordBulkClass calls.
func TestMonitorConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var m Monitor
		var wantPayload uint64
		for i := 0; i < 200; i++ {
			if rng.Intn(4) == 0 {
				n := int64(rng.Intn(5000))
				m.RecordBulkClass(n, 24, ClassBulk)
				if n > 0 {
					wantPayload += uint64(n)
				}
			} else {
				size := 32 * (1 + rng.Intn(4))
				m.Record(size, 24)
				wantPayload += uint64(size)
			}
		}
		if m.PayloadBytes() != wantPayload {
			t.Fatalf("payload bytes %d, want %d", m.PayloadBytes(), wantPayload)
		}
		var reqs, sum uint64
		for size, n := range m.Snapshot().BySize {
			reqs += n
			sum += uint64(size) * n
		}
		if reqs != m.Requests() {
			t.Fatalf("histogram total %d != requests %d", reqs, m.Requests())
		}
		if sum != wantPayload {
			t.Fatalf("histogram sum %d != payload %d", sum, wantPayload)
		}
		if m.WireBytes() < m.PayloadBytes() {
			t.Fatalf("wire bytes below payload bytes")
		}
	}
}

func TestMonitorTrace(t *testing.T) {
	var m Monitor
	m.EnableTrace(5)
	m.Record(32, 24)
	m.Record(128, 24)
	m.RecordBulkClass(300, 24, ClassBulk) // 128 + 128 + 44
	m.Record(96, 24)                      // over the limit: dropped
	tr := m.Trace()
	if len(tr) != 5 {
		t.Fatalf("trace length = %d, want 5 (bounded)", len(tr))
	}
	want := []TraceEntry{{32, false}, {128, false}, {128, true}, {128, true}, {44, true}}
	for i, w := range want {
		if tr[i] != w {
			t.Errorf("trace[%d] = %+v, want %+v", i, tr[i], w)
		}
	}
	// Reset keeps tracing enabled but clears entries.
	m.Reset()
	if len(m.Trace()) != 0 {
		t.Errorf("Reset should clear the trace")
	}
	m.Record(64, 24)
	if len(m.Trace()) != 1 {
		t.Errorf("tracing should continue after Reset")
	}
	// Disabling drops the buffer.
	m.EnableTrace(0)
	m.Record(32, 24)
	if m.Trace() != nil {
		t.Errorf("disabled trace should be nil")
	}
}

// TestMonitorTraceTruncation pins the EnableTrace limit contract: entries
// beyond the limit are truncated from the buffer but still counted — both
// in the monitor's counters and in TraceDropped — and kept + dropped always
// equals the entries offered.
func TestMonitorTraceTruncation(t *testing.T) {
	var m Monitor
	m.EnableTrace(3)
	m.RecordClassN(32, 24, 5, ClassZeroCopy) // 3 kept, 2 dropped
	if got := len(m.Trace()); got != 3 {
		t.Fatalf("trace length = %d, want 3", got)
	}
	if got := m.TraceDropped(); got != 2 {
		t.Errorf("TraceDropped = %d, want 2", got)
	}
	if got := m.Requests(); got != 5 {
		t.Errorf("counters must see all requests: Requests = %d, want 5", got)
	}
	m.RecordBulkClass(300, 24, ClassBulk) // 128 + 128 + 44: all dropped
	if got := m.TraceDropped(); got != 5 {
		t.Errorf("TraceDropped after bulk = %d, want 5", got)
	}
	// Re-enabling resets both the buffer and the dropped count.
	m.EnableTrace(3)
	if m.TraceDropped() != 0 || len(m.Trace()) != 0 {
		t.Errorf("EnableTrace should reset trace state")
	}
	// Reset clears the dropped count too.
	m.RecordClassN(32, 24, 10, ClassZeroCopy)
	m.Reset()
	if m.TraceDropped() != 0 {
		t.Errorf("Reset should clear TraceDropped, got %d", m.TraceDropped())
	}
}

// TestMonitorBeginEvent pins the per-event record contract: an event
// monitor started from a parent keeps exactly the entries the parent keeps
// when the event is merged into it and drops the rest — also once the
// parent's trace is full — and a non-tracing parent gives a non-tracing
// event.
func TestMonitorBeginEvent(t *testing.T) {
	var parent, ev Monitor
	parent.EnableTrace(5)
	parent.RecordClassN(32, 24, 3, ClassZeroCopy)
	for i, n := range []uint64{4, 2} { // 2 kept and 2 dropped, then 2 dropped
		before := len(parent.Trace())
		ev.BeginEvent(&parent)
		ev.RecordClassN(64, 24, n, ClassZeroCopy)
		droppedBefore := parent.TraceDropped()
		parent.Merge(&ev)
		if got := parent.Trace()[before:]; !slices.Equal(ev.Trace(), got) {
			t.Errorf("event %d kept %v, parent kept %v", i, ev.Trace(), got)
		}
		if got := parent.TraceDropped() - droppedBefore; ev.TraceDropped() != got {
			t.Errorf("event %d dropped %d, parent dropped %d", i, ev.TraceDropped(), got)
		}
		if ev.Requests() != n {
			t.Errorf("event %d counted %d requests, want %d", i, ev.Requests(), n)
		}
	}
	if parent.TraceDropped() != 4 || parent.Requests() != 9 {
		t.Errorf("parent dropped %d of %d requests, want 4 of 9", parent.TraceDropped(), parent.Requests())
	}
	parent.EnableTrace(0)
	ev.BeginEvent(&parent)
	ev.RecordClassN(32, 24, 2, ClassZeroCopy)
	if len(ev.Trace()) != 0 || ev.TraceDropped() != 0 {
		t.Errorf("event of a non-tracing parent traced %d and dropped %d", len(ev.Trace()), ev.TraceDropped())
	}
}

// TestMonitorTraceDroppedDisabled pins that a monitor without tracing never
// reports drops (nothing was offered to a trace buffer).
func TestMonitorTraceDroppedDisabled(t *testing.T) {
	var m Monitor
	m.RecordClassN(32, 24, 100, ClassZeroCopy)
	if got := m.TraceDropped(); got != 0 {
		t.Errorf("TraceDropped with tracing off = %d, want 0", got)
	}
}

// TestMonitorMergeTraceDropped pins the shard-merge invariant: merging
// monitors preserves kept + dropped = offered, whether the overflow
// happened in the shard or at the merge.
func TestMonitorMergeTraceDropped(t *testing.T) {
	var dst Monitor
	dst.EnableTrace(4)
	var a, b Monitor
	a.EnableTrace(4)
	b.EnableTrace(4)
	a.RecordClassN(32, 24, 3, ClassZeroCopy) // 3 kept in a
	b.RecordClassN(64, 24, 6, ClassZeroCopy) // 4 kept, 2 dropped in b
	dst.MergeTrace(&a, 0, a.Offered())       // 3 kept
	dst.MergeTrace(&b, 0, b.Offered())       // 1 kept, 3 truncated at merge + 2 from b
	if got := len(dst.Trace()); got != 4 {
		t.Fatalf("merged trace length = %d, want 4", got)
	}
	if got := dst.TraceDropped(); got != 5 {
		t.Errorf("merged TraceDropped = %d, want 5", got)
	}
	if kept, dropped := uint64(len(dst.Trace())), dst.TraceDropped(); kept+dropped != 9 {
		t.Errorf("kept %d + dropped %d != offered 9", kept, dropped)
	}
	// A non-tracing destination ignores trace state entirely.
	var off Monitor
	off.MergeTrace(&b, 0, b.Offered())
	if off.TraceDropped() != 0 || off.Trace() != nil {
		t.Errorf("non-tracing merge target must not accumulate trace state")
	}
}

func TestMonitorTraceOffByDefault(t *testing.T) {
	var m Monitor
	for i := 0; i < 100; i++ {
		m.Record(32, 24)
	}
	if m.Trace() != nil {
		t.Errorf("tracing must be opt-in")
	}
}

// TestClassCXLRegistered checks the CXL transfer class is part of the
// monitor's class taxonomy.
func TestClassCXLRegistered(t *testing.T) {
	if ClassCXL.String() != "cxl" {
		t.Errorf("ClassCXL label = %q", ClassCXL)
	}
	if ClassCXL >= numTransferClasses {
		t.Error("ClassCXL outside the class taxonomy")
	}
	var m Monitor
	m.RecordClassN(64, 24, 2, ClassCXL)
	if got := m.Snapshot().ByClass["cxl"]; got != 128 {
		t.Errorf("CXL class payload bytes = %d, want 128", got)
	}

}
