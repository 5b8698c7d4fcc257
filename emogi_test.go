package emogi

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// smallScale keeps the public-API tests fast: ~1:50000 of the paper.
const smallScale = 0.02

func TestSystemConfigs(t *testing.T) {
	gpuBytes := func(cfg SystemConfig) int64 { return cfg.GPU.Tiers.HBM().CapacityBytes }
	v100 := V100PCIe3(1.0)
	if gpuBytes(v100) != 16<<30/1000 {
		t.Errorf("V100 memory = %d, want 1:1000 of 16GB", gpuBytes(v100))
	}
	xp := TitanXpPCIe3(1.0)
	if gpuBytes(xp) >= gpuBytes(v100) {
		t.Errorf("Titan Xp should have less memory than V100")
	}
	a3, a4 := A100PCIe3(1.0), A100PCIe4(1.0)
	if gpuBytes(a3) != gpuBytes(a4) {
		t.Errorf("A100 memory should not depend on link generation")
	}
	if a3.GPU.Tiers.DRAM().Link.Name == a4.GPU.Tiers.DRAM().Link.Name {
		t.Errorf("A100 configs should differ in link generation")
	}
	// Scaling scales memory too.
	half := V100PCIe3(0.5)
	if gpuBytes(half) != gpuBytes(v100)/2 {
		t.Errorf("dataset scale should scale GPU memory")
	}
}

func TestBuildDataset(t *testing.T) {
	for _, sym := range DatasetSymbols() {
		g, err := BuildDataset(sym, smallScale, 1)
		if err != nil {
			t.Fatalf("BuildDataset(%s): %v", sym, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: no edges", sym)
		}
	}
	if _, err := BuildDataset("nope", 1, 1); err == nil {
		t.Errorf("unknown dataset accepted")
	}
	if len(DatasetSymbols()) != 6 {
		t.Errorf("want 6 dataset symbols")
	}
}

func TestEndToEndBFS(t *testing.T) {
	sys := NewSystem(V100PCIe3(smallScale))
	g, err := BuildDataset("GK", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Unload(dg)
	src := PickSources(g, 1, 3)[0]
	res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Variant: MergedAligned})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res); err != nil {
		t.Errorf("BFS result invalid: %v", err)
	}
	if res.Elapsed <= 0 || res.Stats.PCIeRequests == 0 {
		t.Errorf("degenerate run: %+v", res)
	}
}

func TestEndToEndAllAppsAllTransports(t *testing.T) {
	g, err := BuildDataset("GU", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 5)[0]
	for _, transport := range []Transport{ZeroCopy, UVM} {
		sys := NewSystem(V100PCIe3(smallScale))
		dg, err := sys.Load(g, WithTransportPolicy(StaticPolicy(transport)))
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []string{"bfs", "sssp", "cc"} {
			res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: app, Src: src, Variant: Merged})
			if err != nil {
				t.Fatalf("%s/%s: %v", transport, app, err)
			}
			if err := Validate(g, res); err != nil {
				t.Errorf("%s/%s: %v", transport, app, err)
			}
		}
	}
}

func TestRunManyAveraging(t *testing.T) {
	sys := NewSystem(V100PCIe3(smallScale))
	g, err := BuildDataset("GU", smallScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	sources := PickSources(g, 3, 11)
	sum, err := sys.RunMany(dg, "bfs", sources, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(sum.Results))
	}
	var total time.Duration
	for _, r := range sum.Results {
		total += r.Elapsed
	}
	if sum.MeanElapsed != total/3 {
		t.Errorf("MeanElapsed = %v, want %v", sum.MeanElapsed, total/3)
	}
	if sum.MeanBandwidth() <= 0 {
		t.Errorf("MeanBandwidth should be positive")
	}
	if sum.Monitor.Requests == 0 {
		t.Errorf("monitor delta empty")
	}
	amp := sum.IOAmplification(g.EdgeListBytes(8))
	if amp <= 0 || amp > 3 {
		t.Errorf("implausible amplification %v", amp)
	}
}

func TestRunManyCCRunsOnce(t *testing.T) {
	sys := NewSystem(V100PCIe3(smallScale))
	g, _ := BuildDataset("GU", smallScale, 7)
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := sys.RunMany(dg, "cc", []int{0, 1, 2}, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) != 1 {
		t.Errorf("CC should run once, got %d runs", len(sum.Results))
	}
}

func TestRunManyNoSources(t *testing.T) {
	sys := NewSystem(V100PCIe3(smallScale))
	g, _ := BuildDataset("GU", smallScale, 7)
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunMany(dg, "bfs", nil, Merged); err == nil {
		t.Errorf("empty source list accepted")
	}
	var unknown *UnknownAlgorithmError
	if _, err := sys.RunMany(dg, "nope", []int{0}, Merged); !errors.As(err, &unknown) {
		t.Errorf("unknown algorithm: got %v, want *UnknownAlgorithmError", err)
	}
}

func TestSpeedupHelpers(t *testing.T) {
	a := &RunSummary{MeanElapsed: 2 * time.Second}
	b := &RunSummary{MeanElapsed: 1 * time.Second}
	if got := Speedup(a, b); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
	if got := Speedup(a, &RunSummary{}); got != 0 {
		t.Errorf("zero-time Speedup = %v, want 0", got)
	}
	if got := MeanSpeedups([]float64{2, 4}); got != 3 {
		t.Errorf("MeanSpeedups = %v, want 3", got)
	}
}

// TestHeadlineSpeedupDirection: the paper's core claim in miniature —
// EMOGI Merged+Aligned beats the optimized UVM baseline for BFS on a
// skewed out-of-memory graph.
func TestHeadlineSpeedupDirection(t *testing.T) {
	g, err := BuildDataset("GK", 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sources := PickSources(g, 2, 13)

	sysU := NewSystem(V100PCIe3(0.3))
	dgU, err := sysU.Load(g, WithTransportPolicy(StaticPolicy(UVM)))
	if err != nil {
		t.Fatal(err)
	}
	uvm, err := sysU.RunMany(dgU, "bfs", sources, Merged)
	if err != nil {
		t.Fatal(err)
	}

	sysE := NewSystem(V100PCIe3(0.3))
	dgE, err := sysE.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	em, err := sysE.RunMany(dgE, "bfs", sources, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}

	if sp := Speedup(uvm, em); sp < 1.2 {
		t.Errorf("EMOGI speedup over UVM = %.2fx, want > 1.2x", sp)
	}
}

func TestValidateNilResult(t *testing.T) {
	g, _ := BuildDataset("GU", smallScale, 7)
	if err := Validate(g, nil); err == nil {
		t.Errorf("nil result accepted")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := NewSystem(V100PCIe3(smallScale))
	if sys.Config().Name == "" {
		t.Errorf("Config should carry the platform name")
	}
	if sys.Device() == nil {
		t.Errorf("Device should be exposed")
	}
	g, _ := BuildDataset("GU", smallScale, 7)
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 5)[0]
	for _, app := range []string{"sssp", "cc"} {
		if _, err := sys.Do(context.Background(), Request{Graph: dg, Algo: app, Src: src, Variant: Merged}); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	if sys.Device().Clock() == 0 {
		t.Errorf("clock should have advanced")
	}
	sys.ResetStats()
	if sys.Device().Clock() != 0 {
		t.Errorf("ResetStats should zero the clock")
	}
}

func TestRunSummaryZeroCases(t *testing.T) {
	var rs RunSummary
	if rs.MeanBandwidth() != 0 {
		t.Errorf("zero summary bandwidth should be 0")
	}
	if rs.IOAmplification(0) != 0 || rs.IOAmplification(100) != 0 {
		t.Errorf("degenerate amplification should be 0")
	}
}

// TestLoadOptions: the functional-option Load covers every transport and
// element-width combination, and the defaults are the paper's
// configuration (zero-copy, 8-byte elements).
func TestLoadOptions(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(V100PCIe3(smallScale))
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Transport != ZeroCopy || dg.EdgeBytes != 8 {
		t.Errorf("default Load = %v/%d, want zerocopy/8", dg.Transport, dg.EdgeBytes)
	}
	sys.Unload(dg)

	dg, err = sys.Load(g, WithTransportPolicy(StaticPolicy(UVM)), WithElemBytes(4))
	if err != nil {
		t.Fatal(err)
	}
	if dg.Transport != UVM || dg.EdgeBytes != 4 {
		t.Errorf("Load with options = %v/%d, want uvm/4", dg.Transport, dg.EdgeBytes)
	}
	sys.Unload(dg)
}

// TestUnloadIdempotent: Unload (and the underlying Free) may be called
// any number of times, including on an already-unloaded graph, without
// corrupting the arena accounting.
func TestUnloadIdempotent(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(V100PCIe3(smallScale))
	before := sys.Device().Arena().GPUUsed()
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	sys.Unload(dg)
	after := sys.Device().Arena().GPUUsed()
	if after != before {
		t.Fatalf("Unload left %d bytes allocated", after-before)
	}
	sys.Unload(dg) // second unload: no-op
	sys.Unload(dg) // and again
	if got := sys.Device().Arena().GPUUsed(); got != after {
		t.Errorf("repeated Unload changed arena accounting: %d -> %d", after, got)
	}
	// A fresh Load after the double-unload still works.
	dg2, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Do(context.Background(), Request{Graph: dg2, Algo: "bfs", Src: 0}); err != nil {
		t.Fatal(err)
	}
	sys.Unload(dg2)
}

// TestDoValidation: Do rejects malformed requests with messages that
// tell the caller what to fix.
func TestDoValidation(t *testing.T) {
	sys := NewSystem(V100PCIe3(smallScale))
	if _, err := sys.Do(context.Background(), Request{Algo: "bfs"}); err == nil {
		t.Error("Do without a graph succeeded")
	}
	g, err := BuildDataset("GK", smallScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Unload(dg)
	_, err = sys.Do(context.Background(), Request{Graph: dg})
	if err == nil || !strings.Contains(err.Error(), "bfs") {
		t.Errorf("Do without algo: err = %v, want a message listing algorithms", err)
	}
	_, err = sys.Do(context.Background(), Request{Graph: dg, Algo: "dfs"})
	var ue *UnknownAlgorithmError
	if !errors.As(err, &ue) {
		t.Errorf("unknown algo: err = %v, want *UnknownAlgorithmError", err)
	}
}

// TestRunStatsCriticalPathIsRunScoped pins that a run's critical-path
// maxima are its own: a light query run after a heavy one on the same
// System reports the MaxWarpHostReqs of the light query on a fresh System,
// not the heavier maximum the device saw earlier.
func TestRunStatsCriticalPathIsRunScoped(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	heavySrc := PickSources(g, 1, 1)[0]
	lightSrc := -1
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) == 1 {
			lightSrc = v
			break
		}
	}
	if lightSrc < 0 {
		t.Fatal("no degree-1 vertex to run the light query from")
	}
	run := func(sys *System, dg *DeviceGraph, algo string, src int) *Result {
		t.Helper()
		res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: algo, Src: src, Variant: MergedAligned})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	load := func() (*System, *DeviceGraph) {
		sys := NewSystem(V100PCIe3(smallScale))
		dg, err := sys.Load(g)
		if err != nil {
			t.Fatal(err)
		}
		return sys, dg
	}

	fresh, fdg := load()
	want := run(fresh, fdg, "bfs", lightSrc).Stats

	shared, sdg := load()
	heavy := run(shared, sdg, "sssp", heavySrc).Stats
	got := run(shared, sdg, "bfs", lightSrc).Stats
	if heavy.MaxWarpHostReqs <= want.MaxWarpHostReqs {
		t.Fatalf("heavy MaxWarpHostReqs %d not above the light query's %d: the test has no teeth",
			heavy.MaxWarpHostReqs, want.MaxWarpHostReqs)
	}
	if got.MaxWarpHostReqs != want.MaxWarpHostReqs || got.MaxWarpCXLReqs != want.MaxWarpCXLReqs {
		t.Errorf("light run after a heavy one: MaxWarpHostReqs/CXLReqs = %d/%d, want the fresh system's %d/%d",
			got.MaxWarpHostReqs, got.MaxWarpCXLReqs, want.MaxWarpHostReqs, want.MaxWarpCXLReqs)
	}
}
