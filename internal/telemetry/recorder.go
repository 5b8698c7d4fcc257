package telemetry

import (
	"sort"
	"sync"
	"time"
)

// The flight recorder keeps the last N completed request records in a
// fixed-size ring, the way an aircraft recorder keeps the last minutes of
// flight: always on, bounded memory, and most useful right after
// something went wrong. GET /debug/requests serves the ring newest-first;
// GET /debug/requests/slowest serves the slowest survivors (see
// server.go).

// RequestRecord is one completed request's lifecycle: identity, outcome,
// stage timings, and the recovery machinery it exercised. It is the JSON
// schema of /debug/requests.
type RequestRecord struct {
	// TraceID is the request's trace identifier (inbound X-Request-ID or
	// generated).
	TraceID string `json:"trace_id"`
	// Dataset, Algo, Src, and Variant identify the traversal requested.
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Src     int    `json:"src"`
	Variant string `json:"variant,omitempty"`
	// Outcome is the request's final disposition, matching the `outcome`
	// label of emogi_serve_requests_total: ok, cached, canceled, rejected,
	// or error.
	Outcome string `json:"outcome"`
	// Error carries the error message for non-ok outcomes.
	Error string `json:"error,omitempty"`
	// Start is the wall-clock time the request entered the service.
	Start time.Time `json:"start"`
	// WallNS is the request's total wall time in nanoseconds; the stage
	// durations sum to it up to scheduler handoff slop.
	WallNS int64 `json:"wall_ns"`
	// Stages are the lifecycle spans in recording order.
	Stages []Span `json:"stages"`
	// Rounds is the number of engine rounds the final attempt ran;
	// RoundSpans holds their simulated-clock intervals (capped, see
	// maxTraceRounds).
	Rounds     int         `json:"rounds,omitempty"`
	RoundSpans []RoundSpan `json:"round_spans,omitempty"`
	// Retries is the number of re-attempts after transient faults.
	Retries int `json:"retries,omitempty"`
	// FaultsSurvived is the number of injected faults the request's failed
	// attempts absorbed before the outcome.
	FaultsSurvived uint64 `json:"faults_survived,omitempty"`
	// Degraded marks a request answered on the UVM fallback transport.
	Degraded bool `json:"degraded,omitempty"`
	// Batched marks a request that rode a coalesced batch; BatchLanes is
	// the number of distinct sources the batch carried.
	Batched    bool `json:"batched,omitempty"`
	BatchLanes int  `json:"batch_lanes,omitempty"`
	// SimElapsedNS is the simulated device time of the run that produced
	// the result (zero for cached and failed requests).
	SimElapsedNS int64 `json:"sim_elapsed_ns,omitempty"`
}

// DefaultRecorderCapacity is the ring size NewRecorder selects for
// capacity <= 0.
const DefaultRecorderCapacity = 256

// Recorder is the fixed-size ring of completed request records. All
// methods are safe for concurrent use. A nil *Recorder is inert: Record
// is a no-op and the accessors return empty results, so the disabled path
// costs call sites a nil check and nothing else.
type Recorder struct {
	mu    sync.Mutex
	ring  []RequestRecord
	next  int    // ring slot the next record lands in
	size  int    // occupied slots (== len(ring) once the ring wrapped)
	total uint64 // records ever added, including evicted ones
}

// NewRecorder creates a recorder keeping the last capacity records
// (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{ring: make([]RequestRecord, capacity)}
}

// Capacity returns the ring size.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.ring)
}

// Record adds one completed request, evicting the oldest when the ring is
// full.
func (r *Recorder) Record(rec RequestRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	if r.size < len(r.ring) {
		r.size++
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of records ever added, including evicted ones.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the held records newest-first (the eviction order
// reversed: index 0 is the most recently completed request).
func (r *Recorder) Snapshot() []RequestRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestRecord, 0, r.size)
	for i := 1; i <= r.size; i++ {
		out = append(out, r.ring[(r.next-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Slowest returns up to k held records sorted by descending wall time
// (ties broken newest-first).
func (r *Recorder) Slowest(k int) []RequestRecord {
	recs := r.Snapshot() // newest-first, so stable sort keeps newest ahead on ties
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].WallNS > recs[j].WallNS })
	if k > 0 && len(recs) > k {
		recs = recs[:k]
	}
	return recs
}
