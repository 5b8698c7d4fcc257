package telemetry

import (
	"strings"
	"testing"
)

// TestHealthStateTransitions walks one device through the derivation
// rules: healthy → degraded on absorbed faults or UVM fallback →
// unhealthy on consecutive failures → healthy again once the window
// slides clean.
func TestHealthStateTransitions(t *testing.T) {
	h := NewHealth(nil)
	h.RegisterDevice("gpu0")

	rep := h.Report()
	if rep.Status != "ok" || !rep.Serving || len(rep.Devices) != 1 {
		t.Fatalf("fresh report = %+v, want ok/serving with one device", rep)
	}
	if rep.Devices[0].State != "healthy" {
		t.Fatalf("fresh device state = %q", rep.Devices[0].State)
	}

	// A clean run keeps it healthy.
	h.ObserveRun("gpu0", RunObservation{})
	if st := h.Report().Devices[0].State; st != "healthy" {
		t.Errorf("after clean run: state = %q, want healthy", st)
	}

	// Absorbed faults degrade without failing.
	h.ObserveRun("gpu0", RunObservation{Faults: 3})
	rep = h.Report()
	if rep.Devices[0].State != "degraded" {
		t.Errorf("after absorbed faults: state = %q, want degraded", rep.Devices[0].State)
	}
	if rep.Status != "degraded" || !rep.Serving {
		t.Errorf("degraded instance: status=%q serving=%v, want degraded/true", rep.Status, rep.Serving)
	}
	if rep.Devices[0].WindowFaults != 3 {
		t.Errorf("WindowFaults = %d, want 3", rep.Devices[0].WindowFaults)
	}

	// A UVM fallback also reads as degraded, with the fallback reason.
	h.ObserveRun("gpu0", RunObservation{Degraded: true})
	rep = h.Report()
	if rep.Devices[0].State != "degraded" || !strings.Contains(rep.Devices[0].Reason, "UVM") {
		t.Errorf("after fallback: state=%q reason=%q", rep.Devices[0].State, rep.Devices[0].Reason)
	}

	// Three consecutive transient failures flip it unhealthy and stop
	// serving.
	for i := 0; i < 3; i++ {
		h.ObserveRun("gpu0", RunObservation{TransientFailure: true})
	}
	rep = h.Report()
	if rep.Devices[0].State != "unhealthy" {
		t.Fatalf("after 3 consecutive failures: state = %q, want unhealthy", rep.Devices[0].State)
	}
	if rep.Status != "unhealthy" || rep.Serving {
		t.Errorf("unhealthy instance: status=%q serving=%v, want unhealthy/false", rep.Status, rep.Serving)
	}

	// Enough clean runs slide the window clear and recover the device.
	for i := 0; i < healthWindow; i++ {
		h.ObserveRun("gpu0", RunObservation{})
	}
	rep = h.Report()
	if rep.Devices[0].State != "healthy" {
		t.Errorf("after a clean window: state = %q, want healthy", rep.Devices[0].State)
	}
	if rep.Status != "ok" || !rep.Serving {
		t.Errorf("recovered instance: status=%q serving=%v", rep.Status, rep.Serving)
	}
}

// TestHealthFailRatio: non-consecutive failures still flip the device
// unhealthy once they reach half the window.
func TestHealthFailRatio(t *testing.T) {
	h := NewHealth(nil)
	// Alternate fail/clean: never 3 consecutive, but the ratio reaches
	// 50% with >= unhealthyMinRuns in the window.
	for i := 0; i < 6; i++ {
		h.ObserveRun("gpu0", RunObservation{TransientFailure: i%2 == 0})
	}
	rep := h.Report()
	if rep.Devices[0].State != "unhealthy" {
		t.Errorf("state = %q (%d/%d failures), want unhealthy via fail ratio",
			rep.Devices[0].State, rep.Devices[0].WindowFailures, rep.Devices[0].WindowRuns)
	}
}

// TestHealthDraining: the drain flag overrides everything — status
// "draining", serving false — and the gauge tracks it.
func TestHealthDraining(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth(reg)
	h.RegisterDevice("gpu0")

	h.SetDraining(true)
	if !h.Report().Draining {
		t.Fatal("Report().Draining = false after SetDraining(true)")
	}
	rep := h.Report()
	if rep.Status != "draining" || rep.Serving || !rep.Draining {
		t.Errorf("draining report = %+v", rep)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "emogi_serve_draining 1") {
		t.Errorf("exposition missing draining gauge:\n%s", sb.String())
	}
	h.SetDraining(false)
	if h.Report().Draining || !h.Report().Serving {
		t.Error("drain flag did not clear")
	}
}

// TestHealthGaugeExport: device states export as
// emogi_device_health_state{device} with the numeric classification.
func TestHealthGaugeExport(t *testing.T) {
	reg := NewRegistry()
	h := NewHealth(reg)
	h.ObserveRun("gpu0", RunObservation{Degraded: true})

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `emogi_device_health_state{device="gpu0"} 1`) {
		t.Errorf("exposition missing device state gauge:\n%s", sb.String())
	}
}

// TestHealthNilInert: a nil *Health accepts every call and reports a
// serving instance.
func TestHealthNilInert(t *testing.T) {
	var h *Health
	h.RegisterDevice("gpu0")
	h.ObserveRun("gpu0", RunObservation{TransientFailure: true})
	h.SetDraining(true)
	if h.Report().Draining {
		t.Error("nil health reports draining")
	}
	rep := h.Report()
	if rep.Status != "ok" || !rep.Serving {
		t.Errorf("nil health report = %+v, want ok/serving", rep)
	}
}
