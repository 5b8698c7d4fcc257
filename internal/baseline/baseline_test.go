package baseline

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

func testDevice(memBytes int64) *gpu.Device {
	return gpu.NewDevice(gpu.Config{
		Name:  "test-v100",
		Tiers: memsys.TwoTier(memBytes, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
}

func weighted(g *graph.CSR) *graph.CSR {
	g.InitWeights(7, 8, 72)
	return g
}

func TestSubwayBFSCorrect(t *testing.T) {
	t.Parallel()
	g := weighted(graph.RMAT("gk", 512, 10, 0.57, 0.19, 0.19, true, 1))
	dev := testDevice(0)
	src := graph.PickSources(g, 1, 3)[0]
	res, err := SubwayRun(dev, g, "bfs", src, DefaultSubwayConfig())
	if err != nil {
		t.Fatalf("SubwayRun: %v", err)
	}
	if err := core.ValidateBFS(g, src, res.Values); err != nil {
		t.Errorf("Subway BFS wrong: %v", err)
	}
	if res.Iterations == 0 || res.Elapsed <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestSubwaySSSPCorrect(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Urand("gu", 400, 10, 2))
	dev := testDevice(0)
	src := graph.PickSources(g, 1, 5)[0]
	res, err := SubwayRun(dev, g, "sssp", src, DefaultSubwayConfig())
	if err != nil {
		t.Fatalf("SubwayRun: %v", err)
	}
	if err := core.ValidateSSSP(g, src, res.Values); err != nil {
		t.Errorf("Subway SSSP wrong: %v", err)
	}
}

func TestSubwayCCCorrect(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Social("fs", 512, 10, 4))
	dev := testDevice(0)
	res, err := SubwayRun(dev, g, "cc", 0, DefaultSubwayConfig())
	if err != nil {
		t.Fatalf("SubwayRun: %v", err)
	}
	if err := core.ValidateCC(g, res.Values); err != nil {
		t.Errorf("Subway CC wrong: %v", err)
	}
	if res.Source != -1 {
		t.Errorf("CC result should have no source")
	}
}

func TestSubwayEdgeLimit(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Dense("ml", 200, 60, 24, 3))
	dev := testDevice(0)
	cfg := DefaultSubwayConfig()
	cfg.MaxEdges = g.NumEdges() - 1
	_, err := SubwayRun(dev, g, "bfs", 0, cfg)
	if !errors.Is(err, ErrSubwayUnsupported) {
		t.Errorf("expected ErrSubwayUnsupported, got %v", err)
	}
}

func TestSubwayOOMWithoutPartitioning(t *testing.T) {
	t.Parallel()
	// A GPU too small for the first full frontier with partitioning
	// disabled: Subway must fail with OOM, reproducing the paper's GU
	// observation ("unidentified CUDA out-of-memory errors", §5.6).
	g := weighted(graph.Urand("gu", 2000, 24, 1))
	dev := testDevice(96 * 1024)
	src := graph.PickSources(g, 1, 1)[0]
	cfg := DefaultSubwayConfig()
	cfg.Partition = false
	_, err := SubwayRun(dev, g, "cc", src, cfg)
	if !errors.Is(err, ErrSubwayOOM) {
		t.Errorf("expected ErrSubwayOOM, got %v", err)
	}
}

func TestSubwayPartitionsOversizedFrontier(t *testing.T) {
	t.Parallel()
	// The same tiny GPU with partitioning processes the frontier in
	// chunks and still produces correct results.
	g := weighted(graph.Urand("gu", 2000, 24, 1))
	dev := testDevice(96 * 1024)
	res, err := SubwayRun(dev, g, "cc", 0, DefaultSubwayConfig())
	if err != nil {
		t.Fatalf("partitioned Subway failed: %v", err)
	}
	if err := core.ValidateCC(g, res.Values); err != nil {
		t.Errorf("partitioned Subway CC wrong: %v", err)
	}
	// Sanity: an unconstrained run must not be slower than the chunked one.
	devBig := testDevice(0)
	resBig, err := SubwayRun(devBig, g, "cc", 0, DefaultSubwayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if resBig.Elapsed > res.Elapsed {
		t.Errorf("chunking should not be faster: %v vs %v", res.Elapsed, resBig.Elapsed)
	}
}

func TestSubwayHubExceedsGPU(t *testing.T) {
	t.Parallel()
	// A single neighbor list bigger than free GPU memory cannot be staged
	// even with partitioning: hard OOM. Build a star whose hub list alone
	// (20000 x 4B staging cost) exceeds the GPU memory left after the
	// 80KB value array.
	const n = 20000
	edges := make([]graph.Edge, 0, n-1)
	for v := uint32(1); v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: v})
	}
	g := weighted(graph.FromEdges("star", n, edges, false))
	dev := testDevice(128 * 1024)
	_, err := SubwayRun(dev, g, "cc", 0, DefaultSubwayConfig())
	if !errors.Is(err, ErrSubwayOOM) {
		t.Errorf("expected ErrSubwayOOM for unsplittable hub, got %v", err)
	}
}

func TestSubwayConfigValidation(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Urand("gu", 200, 8, 1))
	dev := testDevice(0)
	cfg := DefaultSubwayConfig()
	cfg.EdgeBytes = 8
	if _, err := SubwayRun(dev, g, "bfs", 0, cfg); err == nil {
		t.Errorf("8-byte Subway accepted; the framework only supports 4")
	}
	if _, err := SubwayRun(dev, g, "bfs", -1, DefaultSubwayConfig()); err == nil {
		t.Errorf("bad source accepted")
	}
	unweighted := graph.Urand("u", 100, 6, 2)
	if _, err := SubwayRun(dev, unweighted, "sssp", 0, DefaultSubwayConfig()); err == nil {
		t.Errorf("unweighted SSSP accepted")
	}
	directed := graph.Web("w", 200, 8, 3)
	if _, err := SubwayRun(dev, directed, "cc", 0, DefaultSubwayConfig()); err == nil {
		t.Errorf("directed CC accepted")
	}
	// Zero-value config gets defaults.
	res, err := SubwayRun(dev, g, "bfs", graph.PickSources(g, 1, 1)[0], SubwayConfig{})
	if err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if err := core.ValidateBFS(g, res.Source, res.Values); err != nil {
		t.Error(err)
	}
}

func TestSubwaySyncSlowerOrEqualAsync(t *testing.T) {
	t.Parallel()
	g := weighted(graph.RMAT("gk", 1024, 12, 0.57, 0.19, 0.19, true, 1))
	src := graph.PickSources(g, 1, 3)[0]
	cfgA := DefaultSubwayConfig()
	devA := testDevice(0)
	resA, err := SubwayRun(devA, g, "bfs", src, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgS := DefaultSubwayConfig()
	cfgS.Async = false
	devS := testDevice(0)
	resS, err := SubwayRun(devS, g, "bfs", src, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	if resS.Elapsed < resA.Elapsed {
		t.Errorf("sync Subway (%v) should not beat async (%v)", resS.Elapsed, resA.Elapsed)
	}
}

func TestHALOBFSCorrect(t *testing.T) {
	t.Parallel()
	g := weighted(graph.RMAT("gk", 512, 10, 0.57, 0.19, 0.19, true, 1))
	dev := testDevice(0)
	src := graph.PickSources(g, 1, 3)[0]
	res, err := HALORun(dev, g, "bfs", src)
	if err != nil {
		t.Fatalf("HALORun: %v", err)
	}
	if err := core.ValidateBFS(g, src, res.Values); err != nil {
		t.Errorf("HALO BFS wrong after remap: %v", err)
	}
	if res.Source != src {
		t.Errorf("source not mapped back: %d", res.Source)
	}
}

func TestHALOSSSPCorrect(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Urand("gu", 300, 10, 2))
	dev := testDevice(0)
	src := graph.PickSources(g, 1, 5)[0]
	res, err := HALORun(dev, g, "sssp", src)
	if err != nil {
		t.Fatalf("HALORun: %v", err)
	}
	if err := core.ValidateSSSP(g, src, res.Values); err != nil {
		t.Errorf("HALO SSSP wrong: %v", err)
	}
}

func TestHALOCCCorrect(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Social("fs", 512, 10, 4))
	dev := testDevice(0)
	res, err := HALORun(dev, g, "cc", 0)
	if err != nil {
		t.Fatalf("HALORun: %v", err)
	}
	if err := core.ValidateCC(g, res.Values); err != nil {
		t.Errorf("HALO CC wrong after label canonicalization: %v", err)
	}
}

func TestHALOBadSource(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Urand("gu", 100, 8, 1))
	dev := testDevice(0)
	if _, err := HALORun(dev, g, "bfs", -2); err == nil {
		t.Errorf("bad source accepted")
	}
}

// TestHALOReducesMigrationsUnderPressure: with GPU memory far smaller than
// the edge list, the reordered graph should migrate fewer UVM pages than
// the original ordering on a web-like graph — HALO's entire premise.
func TestHALOReducesMigrationsUnderPressure(t *testing.T) {
	t.Parallel()
	g := weighted(graph.RMAT("gk", 4096, 16, 0.57, 0.19, 0.19, true, 11))
	src := graph.PickSources(g, 1, 3)[0]
	// Leave only ~20 pages of UVM cache after the ~50KB of explicit
	// allocations, far below the ~128-page edge list: every iteration
	// must re-fault the pages its frontier touches.
	mem := int64(128 * 1024)

	devPlain := testDevice(mem)
	dgPlain, err := core.Upload(devPlain, g, core.UVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := core.BFS(context.Background(), devPlain, dgPlain, src, core.Merged)
	if err != nil {
		t.Fatal(err)
	}

	devHalo := testDevice(mem)
	resHalo, err := HALORun(devHalo, g, "bfs", src)
	if err != nil {
		t.Fatal(err)
	}
	if resHalo.Stats.UVMMigrations >= resPlain.Stats.UVMMigrations {
		t.Errorf("HALO migrations (%d) should be below plain UVM (%d)",
			resHalo.Stats.UVMMigrations, resPlain.Stats.UVMMigrations)
	}
}

func TestCanonicalizeLabels(t *testing.T) {
	t.Parallel()
	in := []uint32{7, 7, 3, 3, 9}
	got := canonicalizeLabels(in)
	want := []uint32{0, 0, 2, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("canonicalize[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBaselinesTakeOnlyPaperApps(t *testing.T) {
	t.Parallel()
	g := weighted(graph.Urand("gu", 100, 6, 2))
	dev := testDevice(0)
	runners := map[string]func(name string) error{
		"subway": func(name string) error {
			_, err := SubwayRun(dev, g, name, 0, DefaultSubwayConfig())
			return err
		},
		"halo": func(name string) error {
			_, err := HALORun(dev, g, name, 0)
			return err
		},
	}
	for sys, run := range runners {
		var unknown *core.UnknownAlgorithmError
		if err := run("no-such-algo"); !errors.As(err, &unknown) {
			t.Errorf("%s: unknown name gave %v, want *core.UnknownAlgorithmError", sys, err)
		}
		if err := run("sswp"); err == nil || errors.As(err, &unknown) {
			t.Errorf("%s: registered non-paper algorithm gave %v, want a baseline error", sys, err)
		}
	}
}
