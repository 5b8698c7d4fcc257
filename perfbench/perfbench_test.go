package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// simulatedMetrics runs one traced pass and returns the metrics that come
// from the simulated clock.
func simulatedMetrics(t *testing.T, w libWorkload, nWorkers int, seed int64) map[string]float64 {
	t.Helper()
	s, err := setupLibrary(0.05, nWorkers, w.policy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.unload()
	tr := newTracer()
	var stats passStats
	for _, q := range s.queries(seed, 2) {
		r, err := s.do(context.Background(), q, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		stats.add(r, s.edgeListBytes(q.graph))
	}
	m := map[string]float64{}
	stats.report(m)
	m["gpu.launches"] = float64(tr.launches)
	m["core.rounds"] = float64(tr.rounds)
	return m
}

// TestSimulatedMetricsDeterministic pins the simulated metrics bit for bit
// across two runs with one seed and across launch worker counts.
func TestSimulatedMetricsDeterministic(t *testing.T) {
	for _, w := range []libWorkload{zcTraverse, adaptivePaging} {
		want := simulatedMetrics(t, w, 2, 7)
		for _, nWorkers := range []int{2, 1} {
			got := simulatedMetrics(t, w, nWorkers, 7)
			for name, v := range want {
				if math.Float64bits(got[name]) != math.Float64bits(v) {
					t.Errorf("%s workers=%d: %s = %v, want %v", w.name, nWorkers, name, got[name], v)
				}
			}
		}
		if want["sim_ms"] == 0 || want["io_amp"] == 0 {
			t.Errorf("%s: empty pass: %v", w.name, want)
		}
	}
}

// TestBenchmarkJSONMatchesSchema checks that BENCHMARK.json declares the
// metrics and workloads schema.json documents, with the same units.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	sch, err := loadSchema()
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]metric{}
	for kind, ms := range map[string][]metric{"end_to_end": bench.EndToEnd, "per_layer": bench.PerLayer} {
		for _, m := range ms {
			declared[kind+"/"+m.Name] = m
		}
	}
	for _, m := range sch.Metrics {
		d, ok := declared[m.Kind+"/"+m.Name]
		if !ok {
			t.Errorf("BENCHMARK.json lacks %s metric %s", m.Kind, m.Name)
			continue
		}
		if d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("%s: BENCHMARK.json says %s/%s, schema.json %s/%s", m.Name, d.Unit, d.Better, m.Unit, m.Better)
		}
		delete(declared, m.Kind+"/"+m.Name)
	}
	for k := range declared {
		t.Errorf("BENCHMARK.json declares %s, which schema.json does not document", k)
	}
	if len(bench.Workloads) != len(sch.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, schema.json %d", len(bench.Workloads), len(sch.Workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != sch.Workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, schema.json %q", i, w.Name, sch.Workloads[i].Name)
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "service", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "core", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Layer: "core", StartNS: 40, EndNS: 70}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "gpu", StartNS: 20, EndNS: 30},
	}
	got := selfTimes(spans)
	want := map[string]int64{"service": 40, "core": 30 + 30, "gpu": 10}
	for layer, ns := range want {
		if int64(got[layer]) != ns {
			t.Errorf("%s self = %d ns, want %d", layer, int64(got[layer]), ns)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestWorkloadsReportEveryMetric runs both workload kinds briefly at a
// small scale, untraced and traced, and checks each emits every metric of
// its kind with no failed operation.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	sch, err := loadSchema()
	if err != nil {
		t.Fatal(err)
	}
	small := libWorkload{"small", 0.05, adaptivePaging.policy, 1}
	runs := map[string]func(context.Context, runOpts) (*outcome, error){
		"library":   func(ctx context.Context, o runOpts) (*outcome, error) { return runLibrary(ctx, small, o) },
		"serve-mix": runServeMix,
	}
	for name, fn := range runs {
		for _, traced := range []bool{false, true} {
			o, err := fn(context.Background(), runOpts{seed: 3, seconds: 1, trace: traced})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, traced, o.failed, o.attempted)
			}
			kind := "end_to_end"
			if traced {
				kind = "per_layer"
			}
			for _, m := range sch.Metrics {
				if v, ok := o.metrics[m.Name]; m.Kind == kind && (!ok || math.IsNaN(v)) {
					t.Errorf("%s trace=%v: no value for %s", name, traced, m.Name)
				}
			}
		}
	}
}
