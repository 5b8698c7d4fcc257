package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestTracerWriteJSONSchema is the trace-schema acceptance test: the
// written timeline must be valid Chrome trace-event JSON (object form) with
// monotonically ordered simulated timestamps, loadable by Perfetto.
func TestTracerWriteJSONSchema(t *testing.T) {
	tracer := NewTracer()
	col := NewCollector(nil, tracer)
	dev := testDevice(t, 4, col)
	lc := &launchCounter{Collector: col}
	dev.SetTelemetry(lc)
	dev.Monitor().EnableTrace(1 << 12)
	g := testGraph(t)
	src := graph.PickSources(g, 1, 71)[0]
	dg, err := core.Upload(dev, g, core.UVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunAlgo(context.Background(), dev, dg, "bfs", src, core.MergedAligned); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	// Strict decode into the schema struct; then a generic decode to check
	// required top-level keys exist.
	var tf struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tf.DisplayTimeUnit)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatalf("empty traceEvents")
	}

	kernels, rounds, uvmBursts, copies := 0, 0, 0, 0
	lastTS := -1.0
	sawComplete := false
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			if sawComplete {
				t.Errorf("event %d: metadata after complete events", i)
			}
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Errorf("event %d: unexpected metadata %q", i, ev.Name)
			}
		case "X":
			sawComplete = true
			if ev.TS < lastTS {
				t.Errorf("event %d (%s): timestamp %v before predecessor %v — not monotonic",
					i, ev.Name, ev.TS, lastTS)
			}
			lastTS = ev.TS
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("event %d (%s): negative ts/dur", i, ev.Name)
			}
			if ev.PID <= 0 {
				t.Errorf("event %d (%s): pid %d not assigned", i, ev.Name, ev.PID)
			}
			switch ev.Cat {
			case "kernel":
				kernels++
			case "round":
				rounds++
			case "uvm":
				uvmBursts++
			case "copy":
				copies++
			default:
				t.Errorf("event %d: unknown category %q", i, ev.Cat)
			}
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	if got, want := uint64(kernels), lc.launches; got != want {
		t.Errorf("trace has %d kernel events, device ran %d kernels", got, want)
	}
	if rounds == 0 {
		t.Errorf("no round events in trace")
	}
	if uvmBursts == 0 {
		t.Errorf("no UVM migration burst events in a UVM run")
	}
	if copies == 0 {
		t.Errorf("no bulk copy events in trace")
	}
	if tracer.Len() != kernels+rounds+uvmBursts+copies {
		t.Errorf("Len() = %d, trace holds %d events", tracer.Len(),
			kernels+rounds+uvmBursts+copies)
	}
}

// TestTracerKernelRequestStream checks the raw PCIe request stream embedded
// into kernel events reuses the monitor's trace (sizes, bulk markers).
func TestTracerKernelRequestStream(t *testing.T) {
	tracer := NewTracer()
	col := NewCollector(nil, tracer)
	dev := testDevice(t, 1, col)
	dev.Monitor().EnableTrace(1 << 12)
	if _, err := core.ToyTraverse(dev, 1<<12, core.ToyMergedAligned, core.ZeroCopy); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tracer.events {
		if ev.Cat != "kernel" {
			continue
		}
		reqs, ok := ev.Args["pcie_requests"].([]string)
		if !ok || len(reqs) == 0 {
			continue
		}
		found = true
		for _, r := range reqs {
			switch r {
			case "32", "64", "96", "128", "32*", "64*", "96*", "128*":
			default:
				t.Errorf("unexpected request token %q", r)
			}
		}
	}
	if !found {
		t.Errorf("no kernel event carries a pcie_requests stream")
	}
}

// TestTracerEventsSorted covers out-of-order insertion across devices: the
// WriteJSON view must sort the recorded events by timestamp.
func TestTracerEventsSorted(t *testing.T) {
	tr := NewTracer()
	tr.Round("devB", "bfs", 1, 300*time.Microsecond, 400*time.Microsecond)
	tr.Round("devA", "bfs", 0, 100*time.Microsecond, 200*time.Microsecond)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct{ TraceEvents []TraceEvent }
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var evs []TraceEvent
	for _, ev := range file.TraceEvents {
		if ev.Ph != "M" {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 2 || evs[0].TS > evs[1].TS {
		t.Fatalf("WriteJSON events not sorted: %+v", evs)
	}
}
