package telemetry

import (
	"sync"
	"time"
)

// The health subsystem turns the fault-injection and degradation signals
// the serving layer already tracks into operator-facing per-device health
// states, the way a fleet GPU metrics exporter classifies devices for its
// node-health controller. States derive from a sliding window of recent
// run observations — deterministic, documented rules (DESIGN.md §14) so a
// state can always be explained from the counters — plus a drain flag the
// service raises when shutdown begins. /healthz reports the result
// honestly: 503 while draining or while any device is unhealthy, so load
// balancers stop routing to a dying instance.

// HealthState is one device's classification.
type HealthState int

const (
	// StateHealthy: no recent faults, degradations, or failures.
	StateHealthy HealthState = iota
	// StateDegraded: the device is serving, but recent runs absorbed
	// injected faults or fell back to the UVM transport.
	StateDegraded
	// StateUnhealthy: recent runs are predominantly failing even after
	// retries — the device should be drained.
	StateUnhealthy
)

// String returns the state's wire name.
func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateUnhealthy:
		return "unhealthy"
	default:
		return "unknown"
	}
}

// Health-state derivation parameters. The window slides per observed run,
// so a device recovers as cleanly as it degrades.
const (
	// healthWindow is the number of recent runs each device's state
	// derives from.
	healthWindow = 16
	// unhealthyConsecutive: this many consecutive transient failures flip
	// a device unhealthy immediately.
	unhealthyConsecutive = 3
	// unhealthyMinRuns and unhealthyFailRatio: with at least MinRuns in
	// the window, a failure ratio at or above FailRatio is unhealthy.
	unhealthyMinRuns   = 4
	unhealthyFailRatio = 0.5
)

// RunObservation is one completed run's health-relevant facts, reported
// by the serving layer after each executed request (cached answers touch
// no device and are not observed).
type RunObservation struct {
	// TransientFailure marks a run that failed with a transient fault
	// after the retry budget ran out.
	TransientFailure bool
	// Degraded marks a run answered on the UVM fallback transport.
	Degraded bool
	// Faults is the number of injected faults the run's attempts absorbed.
	Faults uint64
}

// DeviceHealth is one device's classified state, the JSON element of the
// /healthz device list.
type DeviceHealth struct {
	Device string    `json:"device"`
	State  string    `json:"state"`
	Reason string    `json:"reason,omitempty"`
	Since  time.Time `json:"since"`
	// Window counters explain the state: runs observed, runs that failed
	// transiently, runs that degraded, and faults absorbed, all within the
	// sliding window.
	WindowRuns     int    `json:"window_runs"`
	WindowFailures int    `json:"window_failures"`
	WindowDegraded int    `json:"window_degraded"`
	WindowFaults   uint64 `json:"window_faults"`
}

// HealthReport is the /healthz body.
type HealthReport struct {
	// Status is the instance-level summary: ok, degraded, unhealthy, or
	// draining.
	Status string `json:"status"`
	// Serving reports whether the instance should receive traffic; false
	// maps to HTTP 503.
	Serving  bool           `json:"serving"`
	Draining bool           `json:"draining"`
	Devices  []DeviceHealth `json:"devices,omitempty"`
}

// healthObs is one window slot.
type healthObs struct {
	failed   bool
	degraded bool
	faults   uint64
}

// deviceWindow is one device's sliding window and derived state.
type deviceWindow struct {
	ring        [healthWindow]healthObs
	next, size  int
	consecFails int
	state       HealthState
	reason      string
	since       time.Time
	gauge       *Gauge // emogi_device_health_state series, when exporting
}

// Health derives per-device health states from run observations. All
// methods are safe for concurrent use. A nil *Health is inert, so the
// serving layer wires it unconditionally.
type Health struct {
	mu       sync.Mutex
	reg      *Registry // optional: exports state gauges
	devices  map[string]*deviceWindow
	order    []string
	draining bool
	drainG   *Gauge
}

// NewHealth creates a health tracker. When reg is non-nil, every device's
// state is exported as emogi_device_health_state{device} (0 healthy,
// 1 degraded, 2 unhealthy) plus an emogi_serve_draining gauge.
func NewHealth(reg *Registry) *Health {
	h := &Health{reg: reg, devices: make(map[string]*deviceWindow)}
	if reg != nil {
		h.drainG = reg.Gauge("emogi_serve_draining",
			"1 while the service is draining for shutdown.", nil)
	}
	return h
}

// device returns the named device's window, creating it healthy on first
// sight. Callers hold h.mu.
func (h *Health) device(name string) *deviceWindow {
	dw, ok := h.devices[name]
	if !ok {
		dw = &deviceWindow{state: StateHealthy, since: time.Now()}
		if h.reg != nil {
			dw.gauge = h.reg.Gauge("emogi_device_health_state",
				"Device health classification: 0 healthy, 1 degraded, 2 unhealthy.",
				Labels{"device": name})
		}
		h.devices[name] = dw
		h.order = append(h.order, name)
	}
	return dw
}

// RegisterDevice pre-creates a healthy entry so /healthz lists the device
// before any traffic arrives.
func (h *Health) RegisterDevice(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.device(name)
	h.mu.Unlock()
}

// ObserveRun folds one executed run into the device's window and
// rederives its state.
func (h *Health) ObserveRun(device string, obs RunObservation) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	dw := h.device(device)
	dw.ring[dw.next] = healthObs{failed: obs.TransientFailure, degraded: obs.Degraded, faults: obs.Faults}
	dw.next = (dw.next + 1) % healthWindow
	if dw.size < healthWindow {
		dw.size++
	}
	if obs.TransientFailure {
		dw.consecFails++
	} else {
		dw.consecFails = 0
	}
	dw.derive()
}

// derive reclassifies the device from its window. Callers hold h.mu.
func (dw *deviceWindow) derive() {
	failures, degraded := 0, 0
	var faults uint64
	for i := 0; i < dw.size; i++ {
		o := dw.ring[i]
		if o.failed {
			failures++
		}
		if o.degraded {
			degraded++
		}
		faults += o.faults
	}
	state, reason := StateHealthy, ""
	switch {
	case dw.consecFails >= unhealthyConsecutive:
		state = StateUnhealthy
		reason = "consecutive transient failures exhausted their retry budgets"
	case dw.size >= unhealthyMinRuns && float64(failures) >= unhealthyFailRatio*float64(dw.size):
		state = StateUnhealthy
		reason = "recent runs predominantly failing after retries"
	case degraded > 0:
		state = StateDegraded
		reason = "recent runs fell back to the UVM transport"
	case faults > 0:
		state = StateDegraded
		reason = "recent runs absorbed injected faults"
	}
	if state != dw.state {
		dw.state = state
		dw.since = time.Now()
	}
	dw.reason = reason
	if dw.gauge != nil {
		dw.gauge.Set(float64(state))
	}
}

// SetDraining raises (or clears) the drain flag. The service raises it
// when Close begins; while set, /healthz answers 503 so load balancers
// route away while in-flight requests finish.
func (h *Health) SetDraining(v bool) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.draining = v
	if h.drainG != nil {
		if v {
			h.drainG.Set(1)
		} else {
			h.drainG.Set(0)
		}
	}
	h.mu.Unlock()
}

// Report classifies the instance: per-device states plus the drain flag.
// Serving is false — HTTP 503 — while draining or while any device is
// unhealthy; a degraded instance keeps serving (it is still producing
// exact results, just slower or on the fallback transport).
func (h *Health) Report() HealthReport {
	if h == nil {
		return HealthReport{Status: "ok", Serving: true}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	rep := HealthReport{Status: "ok", Serving: true, Draining: h.draining}
	worst := StateHealthy
	for _, name := range h.order {
		dw := h.devices[name]
		failures, degraded := 0, 0
		var faults uint64
		for i := 0; i < dw.size; i++ {
			o := dw.ring[i]
			if o.failed {
				failures++
			}
			if o.degraded {
				degraded++
			}
			faults += o.faults
		}
		rep.Devices = append(rep.Devices, DeviceHealth{
			Device:         name,
			State:          dw.state.String(),
			Reason:         dw.reason,
			Since:          dw.since,
			WindowRuns:     dw.size,
			WindowFailures: failures,
			WindowDegraded: degraded,
			WindowFaults:   faults,
		})
		if dw.state > worst {
			worst = dw.state
		}
	}
	if worst > StateHealthy {
		rep.Status = worst.String()
	}
	if worst == StateUnhealthy {
		rep.Serving = false
	}
	if h.draining {
		rep.Status = "draining"
		rep.Serving = false
	}
	return rep
}
