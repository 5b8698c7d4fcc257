package telemetry

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// testDevice builds an uncapped device on the calibrated Gen3 link with a
// collector attached.
func testDevice(t *testing.T, workers int, col *Collector) *gpu.Device {
	t.Helper()
	dev := gpu.NewDevice(gpu.Config{
		Name:    "test-v100",
		Workers: workers,
		Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
	dev.SetTelemetry(col)
	return dev
}

// launchCounter forwards every event to its Collector and counts kernel
// launches, the reference the exported launch counters are checked
// against, and the UVM pages transport decisions evicted.
type launchCounter struct {
	*Collector
	launches        uint64
	policyEvictions uint64
}

func (l *launchCounter) KernelDone(dev *gpu.Device, ks *gpu.KernelStats, workers, maxWorkers int, start, end time.Duration) {
	l.launches++
	l.Collector.KernelDone(dev, ks, workers, maxWorkers, start, end)
}

func (l *launchCounter) TransportDecisions(dev *gpu.Device, round int, moves []gpu.TransportMove, start, end time.Duration) {
	for _, mv := range moves {
		l.policyEvictions += mv.Evictions
	}
	l.Collector.TransportDecisions(dev, round, moves, start, end)
}

// cappedDevice builds a device whose HBM holds a fraction of a 0.05-scale
// dataset, so UVM pages evict and the adaptive policy rebinds partitions.
func cappedDevice(workers int) *gpu.Device {
	s := 0.05 / 1000.0 // dataset scale x the repo's 1:1000 reduction
	return gpu.NewDevice(gpu.Config{
		Name:    "test-v100-capped",
		Workers: workers,
		Tiers: memsys.TwoTier(int64(float64(int64(16)<<30)*s), int64(float64(int64(256)<<30)*s),
			memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		L2Bytes:            int64(float64(int64(6)<<20) * s),
		MaxConcurrentLanes: int(float64(80*2048) * s),
	})
}

func testGraph(t *testing.T) *graph.CSR {
	t.Helper()
	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Build(0.02, 42)
}

// sumSeries sums a counter family's value across every label set.
func sumSeries(t *testing.T, series map[string]string, name string) uint64 {
	t.Helper()
	var total uint64
	for k, v := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += mustUint(t, v)
		}
	}
	return total
}

// TestCollectorMatchesDeviceCounters is the exporter-accuracy acceptance
// check: after real runs the /metrics values must equal the devices' own
// counters — the same numbers the bench tables print. Besides plain
// zero-copy and UVM runs it drives the traffic a per-event accounting path
// could lose: an adaptive run whose rebinds evict UVM pages between
// launches, a ColdCaches reset (ResetUVMResidency) before a second such
// run, and a Subway run whose chunk uploads overlap its kernels.
func TestCollectorMatchesDeviceCounters(t *testing.T) {
	col := NewCollector(nil, NewTracer())
	dev := testDevice(t, 4, col)
	lc := &launchCounter{Collector: col}
	dev.SetTelemetry(lc)
	dev.Monitor().EnableTrace(1 << 16)
	g := testGraph(t)
	src := graph.PickSources(g, 1, 71)[0]

	totalRounds := 0
	for _, transport := range []core.Transport{core.ZeroCopy, core.UVM} {
		dg, err := core.Upload(dev, g, transport, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunAlgo(context.Background(), dev, dg, "bfs", src, core.MergedAligned)
		if err != nil {
			t.Fatal(err)
		}
		totalRounds += res.Iterations
	}

	capped := cappedDevice(2)
	capped.SetTelemetry(lc)
	capped.Monitor().EnableTrace(4096) // small enough to drop
	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	gw := spec.Build(0.05, 42)
	wsrc := graph.PickSources(gw, 1, 71)[0]
	adg, err := core.UploadPolicyPlaced(capped, gw, core.AdaptivePolicy(), 8, core.PlaceAuto)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if i > 0 {
			capped.ResetUVMResidency()
		}
		res, err := core.RunAlgo(context.Background(), capped, adg, "sssp", wsrc, core.Naive)
		if err != nil {
			t.Fatal(err)
		}
		totalRounds += res.Iterations
	}
	if lc.policyEvictions == 0 {
		t.Fatal("no transport decision evicted UVM pages; the adaptive runs exercise nothing")
	}
	if _, err := baseline.SubwayRun(capped, gw, "sssp", wsrc, baseline.DefaultSubwayConfig()); err != nil {
		t.Fatal(err)
	}
	if capped.Monitor().TraceDropped() == 0 {
		t.Fatal("the capped device's trace dropped nothing")
	}

	out := render(t, col.Registry())
	validateExposition(t, out)
	series := parseSeries(t, out)

	if got, want := sumSeries(t, series, "emogi_kernel_launches_total"), lc.launches; got != want {
		t.Errorf("emogi_kernel_launches_total = %d, want %d launches", got, want)
	}
	var wire, requests, copied, dropped uint64
	var total gpu.KernelStats
	for _, d := range []*gpu.Device{dev, capped} {
		snap := d.Monitor().Snapshot()
		wire += snap.WireBytes
		requests += snap.Requests
		// Host-to-device copies are the bulk and staged transfer classes
		// (the device does not monitor its downloads).
		copied += snap.ByClass["bulk"] + snap.ByClass["staged"]
		dropped += d.Monitor().TraceDropped()
		dt := d.Total()
		total.Add(&dt)
	}
	if got := sumSeries(t, series, "emogi_pcie_wire_bytes_total"); got != wire {
		t.Errorf("emogi_pcie_wire_bytes_total = %d, want %d (monitor wire bytes)", got, wire)
	}
	if got := sumSeries(t, series, "emogi_pcie_request_size_bytes_count"); got != requests {
		t.Errorf("request size histogram count = %d, want %d (monitor requests)", got, requests)
	}
	var h2d uint64
	for k, v := range series {
		if strings.HasPrefix(k, "emogi_copy_bytes_total{") && strings.Contains(k, `direction="h2d"`) {
			h2d += mustUint(t, v)
		}
	}
	if h2d != copied {
		t.Errorf("h2d emogi_copy_bytes_total = %d, want %d (monitor bulk and staged bytes)", h2d, copied)
	}
	if got := sumSeries(t, series, "emogi_uvm_evictions_total"); got != total.UVMEvictions {
		t.Errorf("emogi_uvm_evictions_total = %d, want %d (device evictions)", got, total.UVMEvictions)
	}
	if got := sumSeries(t, series, "emogi_warp_instructions_total"); got != total.WarpInstrs {
		t.Errorf("emogi_warp_instructions_total = %d, want %d", got, total.WarpInstrs)
	}
	if got := sumSeries(t, series, "emogi_hbm_bytes_total"); got != total.HBMBytes {
		t.Errorf("emogi_hbm_bytes_total = %d, want %d", got, total.HBMBytes)
	}
	if got := sumSeries(t, series, "emogi_pcie_requests_total"); got != total.PCIeRequests {
		t.Errorf("emogi_pcie_requests_total = %d, want %d", got, total.PCIeRequests)
	}
	if got := sumSeries(t, series, "emogi_uvm_migrations_total"); got != total.UVMMigrations {
		t.Errorf("emogi_uvm_migrations_total = %d, want %d", got, total.UVMMigrations)
	}
	if got := sumSeries(t, series, "emogi_pcie_trace_dropped_total"); got != dropped {
		t.Errorf("emogi_pcie_trace_dropped_total = %d, want %d", got, dropped)
	}
	if got := sumSeries(t, series, "emogi_runs_total"); got != 5 {
		t.Errorf("emogi_runs_total = %d, want 5", got)
	}
	if got := sumSeries(t, series, "emogi_rounds_total"); got != uint64(totalRounds) {
		t.Errorf("emogi_rounds_total = %d, want %d", got, totalRounds)
	}

	// Labels set by the core round loop must address the series.
	zc := `emogi_kernel_launches_total{app="BFS",graph="` + g.Name +
		`",transport="zerocopy",variant="Merged+Aligned"}`
	if _, ok := series[zc]; !ok {
		t.Errorf("missing labeled series %s in:\n%s", zc, out)
	}
}

// TestCollectorReorderCounters runs a reorder-enabled device and checks the
// window's activity — merged requests, flushes, summed occupancy — lands on
// /metrics exactly as the device counts it.
func TestCollectorReorderCounters(t *testing.T) {
	col := NewCollector(nil, nil)
	dev := gpu.NewDevice(gpu.Config{
		Name:          "test-v100",
		Tiers:         memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		ReorderWindow: 16,
	})
	dev.SetTelemetry(col)
	g := testGraph(t)
	src := graph.PickSources(g, 1, 71)[0]
	dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunAlgo(context.Background(), dev, dg, "bfs", src, core.MergedAligned); err != nil {
		t.Fatal(err)
	}

	series := parseSeries(t, render(t, col.Registry()))
	total := dev.Total()
	if total.ReorderFlushes == 0 || total.ReorderWindowSectors == 0 {
		t.Fatalf("reorder stage did not engage: %+v", total)
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"emogi_reorder_merged_requests_total", total.ReorderMerged},
		{"emogi_reorder_flushes_total", total.ReorderFlushes},
		{"emogi_reorder_window_sectors_total", total.ReorderWindowSectors},
	} {
		if got := sumSeries(t, series, c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestCollectorTraceDroppedMetric drives the monitor past a tiny trace
// limit and checks the dropped-entry count surfaces as a counter.
func TestCollectorTraceDroppedMetric(t *testing.T) {
	col := NewCollector(nil, nil)
	dev := testDevice(t, 1, col)
	dev.Monitor().EnableTrace(8)

	g := testGraph(t)
	src := graph.PickSources(g, 1, 71)[0]
	dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunAlgo(context.Background(), dev, dg, "bfs", src, core.MergedAligned); err != nil {
		t.Fatal(err)
	}
	if dev.Monitor().TraceDropped() == 0 {
		t.Fatalf("expected trace drops with limit 8")
	}
	series := parseSeries(t, render(t, col.Registry()))
	if got := sumSeries(t, series, "emogi_pcie_trace_dropped_total"); got != dev.Monitor().TraceDropped() {
		t.Errorf("dropped metric = %d, want %d", got, dev.Monitor().TraceDropped())
	}
}

// TestCollectorSurvivesStatsReset runs, resets device stats mid-stream,
// runs again: deltas must restart from the new generation without
// underflow, and the final counters must equal the sum of both segments.
func TestCollectorSurvivesStatsReset(t *testing.T) {
	col := NewCollector(nil, nil)
	dev := testDevice(t, 2, col)
	g := testGraph(t)
	src := graph.PickSources(g, 1, 71)[0]

	run := func() uint64 {
		dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.RunAlgo(context.Background(), dev, dg, "bfs", src, core.Merged); err != nil {
			t.Fatal(err)
		}
		return dev.Monitor().Snapshot().WireBytes
	}
	first := run()
	dev.ResetStats()
	second := run()

	series := parseSeries(t, render(t, col.Registry()))
	if got, want := sumSeries(t, series, "emogi_pcie_wire_bytes_total"), first+second; got != want {
		t.Errorf("wire bytes across reset = %d, want %d (%d + %d)", got, want, first, second)
	}
}

// deterministicCounters are the metric families that must be bit-for-bit
// identical between a serial and a parallel run of the same workload (the
// launch-engine determinism contract extended to the exporter). Worker
// accounting and wall-clock-free gauges are excluded by construction:
// worker counts legitimately differ.
var deterministicCounters = []string{
	"emogi_kernel_launches_total",
	"emogi_kernel_warps_total",
	"emogi_warp_instructions_total",
	"emogi_hbm_bytes_total",
	"emogi_host_dram_bytes_total",
	"emogi_pcie_requests_total",
	"emogi_pcie_payload_bytes_total",
	"emogi_pcie_wire_bytes_total",
	"emogi_pcie_trace_dropped_total",
	"emogi_pcie_request_size_bytes_bucket",
	"emogi_pcie_request_size_bytes_sum",
	"emogi_pcie_request_size_bytes_count",
	"emogi_uvm_migrations_total",
	"emogi_uvm_page_hits_total",
	"emogi_uvm_faults_total",
	"emogi_uvm_evictions_total",
	"emogi_zc_refetches_total",
	"emogi_rounds_total",
	"emogi_runs_total",
	"emogi_copy_bytes_total",
}

// TestCollectorSerialParallelEquivalence asserts the exporter preserves
// PR-1's determinism guarantee: the same traversal on 1 worker and on 8
// workers yields identical metric values for every simulated quantity.
func TestCollectorSerialParallelEquivalence(t *testing.T) {
	g := testGraph(t)
	src := graph.PickSources(g, 1, 71)[0]

	metricsFor := func(workers int) map[string]string {
		col := NewCollector(nil, NewTracer())
		dev := testDevice(t, workers, col)
		dev.Monitor().EnableTrace(64) // small limit: drop accounting must match too
		for _, transport := range []core.Transport{core.ZeroCopy, core.UVM} {
			dg, err := core.Upload(dev, g, transport, 8)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.RunAlgo(context.Background(), dev, dg, "sssp", src, core.MergedAligned); err != nil {
				t.Fatal(err)
			}
		}
		all := parseSeries(t, render(t, col.Registry()))
		keep := make(map[string]string)
		for k, v := range all {
			for _, fam := range deterministicCounters {
				if k == fam || strings.HasPrefix(k, fam+"{") {
					keep[k] = v
					break
				}
			}
		}
		return keep
	}

	serial, parallel := metricsFor(1), metricsFor(8)
	if len(serial) == 0 {
		t.Fatalf("no deterministic series captured")
	}
	for k, v := range serial {
		if pv, ok := parallel[k]; !ok {
			t.Errorf("series %s missing from parallel run", k)
		} else if pv != v {
			t.Errorf("series %s differs: serial %s, parallel %s", k, v, pv)
		}
	}
	for k := range parallel {
		if _, ok := serial[k]; !ok {
			t.Errorf("series %s missing from serial run", k)
		}
	}
}
