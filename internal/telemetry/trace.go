package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/pcie"
)

// The tracer emits the Chrome trace-event JSON format (the object form:
// {"traceEvents": [...]}), loadable in Perfetto or chrome://tracing. Each
// kernel launch, traversal round, UVM migration burst, and bulk copy
// becomes one complete ("ph":"X") event with simulated-clock timestamps in
// microseconds; devices map to trace processes and signal kinds to threads,
// named via metadata ("ph":"M") events.

// Track thread IDs within one device's trace process.
const (
	trackKernels   = 0
	trackRounds    = 1
	trackUVM       = 2
	trackCopies    = 3
	trackTransport = 4
)

// TraceEvent is one trace-event entry. Exported fields marshal to the
// trace-event JSON keys.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds of simulated time
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the object-form trace envelope.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Tracer accumulates trace events. All methods are safe for concurrent
// use. The zero value is not usable; call NewTracer.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
	meta   []TraceEvent
	pids   map[string]int // device name -> trace process ID

	// Request-track state: completed service requests land in one trace
	// process ("requests"), one thread per request. Their timebase is
	// wall-clock offset from the first recorded request (device tracks use
	// the simulated clock; the two interleave in one file but measure
	// different things — see DESIGN.md §14).
	reqEpoch time.Time
	reqTID   int
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{pids: make(map[string]int)}
}

// pid returns the trace process ID for a device name, emitting the naming
// metadata events on first sight. Callers hold t.mu.
func (t *Tracer) pid(device string) int {
	if p, ok := t.pids[device]; ok {
		return p
	}
	p := len(t.pids) + 1
	t.pids[device] = p
	t.meta = append(t.meta,
		TraceEvent{Name: "process_name", Ph: "M", PID: p,
			Args: map[string]any{"name": device}},
		TraceEvent{Name: "thread_name", Ph: "M", PID: p, TID: trackKernels,
			Args: map[string]any{"name": "kernels"}},
		TraceEvent{Name: "thread_name", Ph: "M", PID: p, TID: trackRounds,
			Args: map[string]any{"name": "rounds"}},
		TraceEvent{Name: "thread_name", Ph: "M", PID: p, TID: trackUVM,
			Args: map[string]any{"name": "uvm migrations"}},
		TraceEvent{Name: "thread_name", Ph: "M", PID: p, TID: trackCopies,
			Args: map[string]any{"name": "bulk copies"}},
		TraceEvent{Name: "thread_name", Ph: "M", PID: p, TID: trackTransport,
			Args: map[string]any{"name": "transport decisions"}},
	)
	return p
}

// usec converts a simulated duration to trace-event microseconds.
func usec(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}

// complete appends one complete event. Zero-duration events are given the
// interval as-is; chrome://tracing renders dur=0 slices as instants.
func (t *Tracer) complete(device, track string, tid int, name string, start, end time.Duration, args map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, TraceEvent{
		Name: name,
		Cat:  track,
		Ph:   "X",
		TS:   usec(start),
		Dur:  usec(end - start),
		PID:  t.pid(device),
		TID:  tid,
		Args: args,
	})
}

// Kernel records one kernel launch spanning [start, end) of simulated
// time. requests optionally carries the raw per-request stream the PCIe
// monitor traced during the launch (pcie.TraceEntry is reused directly so
// the telemetry timeline and the FPGA-style stream view cannot drift
// apart); it is rendered compactly into the event args.
func (t *Tracer) Kernel(device, name string, start, end time.Duration, args map[string]any, requests []pcie.TraceEntry) {
	if len(requests) > 0 {
		if args == nil {
			args = make(map[string]any, 1)
		}
		args["pcie_requests"] = renderRequests(requests)
	}
	t.complete(device, "kernel", trackKernels, name, start, end, args)
}

// Round records one traversal round (BFS level / SSSP / CC sweep).
func (t *Tracer) Round(device, name string, round int, start, end time.Duration) {
	t.complete(device, "round", trackRounds, fmt.Sprintf("%s round %d", name, round),
		start, end, map[string]any{"round": round})
}

// TransportDecision records one transport-policy decision point: the
// partition rebinds a routed run applied at a round boundary, including
// the staging copies it charged.
func (t *Tracer) TransportDecision(device string, round int, detail string, start, end time.Duration) {
	t.complete(device, "transport", trackTransport,
		fmt.Sprintf("transport decide round %d", round), start, end,
		map[string]any{"round": round, "moves": detail})
}

// UVMBurst records one kernel's UVM migration burst: pages migrated while
// the kernel ran, spanning the kernel's interval on the UVM track.
func (t *Tracer) UVMBurst(device string, pages, evictions uint64, bytes uint64, start, end time.Duration) {
	t.complete(device, "uvm", trackUVM, "uvm migration burst", start, end, map[string]any{
		"pages":     pages,
		"evictions": evictions,
		"bytes":     bytes,
	})
}

// Copy records one explicit bulk transfer.
func (t *Tracer) Copy(device string, toDevice bool, bytes int64, start, end time.Duration) {
	name := "copy d2h"
	if toDevice {
		name = "copy h2d"
	}
	t.complete(device, "copy", trackCopies, name, start, end, map[string]any{
		"bytes": bytes,
	})
}

// requestPID returns the trace process ID of the shared "requests"
// process, creating and naming it on first use. Callers hold t.mu.
func (t *Tracer) requestPID() int {
	if p, ok := t.pids["requests"]; ok {
		return p
	}
	p := len(t.pids) + 1
	t.pids["requests"] = p
	t.meta = append(t.meta, TraceEvent{Name: "process_name", Ph: "M", PID: p,
		Args: map[string]any{"name": "requests"}})
	return p
}

// Request records one completed service request as its own thread in the
// "requests" trace process: one complete event per lifecycle span, with
// wall-clock timestamps offset from the first recorded request. outcome
// labels the thread alongside the trace ID.
func (t *Tracer) Request(id, outcome string, begin time.Time, spans []Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.requestPID()
	if t.reqEpoch.IsZero() {
		t.reqEpoch = begin
	}
	t.reqTID++
	tid := t.reqTID
	t.meta = append(t.meta, TraceEvent{Name: "thread_name", Ph: "M", PID: p, TID: tid,
		Args: map[string]any{"name": fmt.Sprintf("req %s (%s)", id, outcome)}})
	// Requests completing out of order may have begun before the epoch;
	// Chrome trace timestamps may be negative, so the offset stands as-is.
	off := begin.Sub(t.reqEpoch)
	for _, sp := range spans {
		name := sp.Stage
		if sp.Attempt > 0 {
			name = fmt.Sprintf("%s #%d", sp.Stage, sp.Attempt)
		}
		args := map[string]any{"trace_id": id}
		if sp.Detail != "" {
			args["detail"] = sp.Detail
		}
		t.events = append(t.events, TraceEvent{
			Name: name,
			Cat:  "request",
			Ph:   "X",
			TS:   usec(off + time.Duration(sp.StartNS)),
			Dur:  float64(sp.DurNS) / float64(time.Microsecond),
			PID:  p,
			TID:  tid,
			Args: args,
		})
	}
}

// renderRequests formats a raw request trace compactly: one "<size>" or
// "<size>*" (bulk/DMA) token per request, matching pciemon's stream view.
func renderRequests(entries []pcie.TraceEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		if e.Bulk {
			out[i] = fmt.Sprintf("%d*", e.Size)
		} else {
			out[i] = fmt.Sprintf("%d", e.Size)
		}
	}
	return out
}

// Len returns the number of recorded events, excluding naming metadata.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON renders the timeline in the object form of the Chrome
// trace-event format. Metadata events come first, then all recorded events
// sorted by simulated timestamp (stable, so same-timestamp events keep
// arrival order), guaranteeing a monotonically ordered timeline even when
// several devices interleave.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	all := make([]TraceEvent, 0, len(t.meta)+len(t.events))
	all = append(all, t.meta...)
	evs := append([]TraceEvent(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	all = append(all, evs...)

	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: all, DisplayTimeUnit: "ms"})
}
