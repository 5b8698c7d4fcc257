package core

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// Failure injection and degenerate-input tests: the library must fail
// loudly on impossible configurations and behave sensibly on pathological
// graphs.

func TestUploadHostMemoryExhausted(t *testing.T) {
	g := testGraphs()[0]
	dev := gpu.NewDevice(gpu.Config{
		// 1 KB of host DRAM cannot hold the edge list.
		Tiers: memsys.TwoTier(0, 1024, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
	if _, err := Upload(dev, g, ZeroCopy, 8); err == nil {
		t.Errorf("expected host OOM")
	}
}

func TestBFSZeroUVMCache(t *testing.T) {
	// GPU memory just fits the explicit buffers, leaving (almost) no UVM
	// page cache: every access bounces pages but results stay correct.
	g := graph.Urand("gu", 300, 8, 1)
	g.InitWeights(1, 8, 72)
	need := int64(g.NumVertices()+1)*8 + int64(g.NumVertices())*4*2 + 4096*4
	dev := gpu.NewDevice(gpu.Config{
		Tiers: memsys.TwoTier(need, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
	dg, err := Upload(dev, g, UVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.PickSources(g, 1, 1)[0]
	res, err := BFS(context.Background(), dev, dg, src, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, src, res.Values); err != nil {
		t.Errorf("thrash-heavy UVM BFS wrong: %v", err)
	}
	if res.Stats.UVMMigrations == 0 {
		t.Errorf("expected migrations under page pressure")
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g := &graph.CSR{Name: "one", Offsets: []int64{0, 0}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(context.Background(), dev, dg, 0, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] != 0 {
		t.Errorf("source level = %d, want 0", res.Values[0])
	}
	if res.Iterations != 1 {
		t.Errorf("iterations = %d, want 1 (empty first frontier)", res.Iterations)
	}
	cc, err := CC(context.Background(), dev, dg, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Values[0] != 0 {
		t.Errorf("CC label = %d, want 0", cc.Values[0])
	}
}

func TestIsolatedSourceBFS(t *testing.T) {
	// BFS from a vertex with no edges: one empty kernel round, all other
	// vertices unreached.
	g := graph.FromEdges("iso", 8, []graph.Edge{{Src: 1, Dst: 2}}, false)
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(context.Background(), dev, dg, 5, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, 5, res.Values); err != nil {
		t.Error(err)
	}
	if graph.ReachableCount(res.Values) != 1 {
		t.Errorf("isolated source should reach only itself")
	}
}

func TestAllVariantsOnPathGraph(t *testing.T) {
	// A long path stresses the iteration loop: depth = n-1 kernels.
	const n = 64
	edges := make([]graph.Edge, 0, n-1)
	for v := uint32(0); v < n-1; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: v + 1})
	}
	g := graph.FromEdges("path", n, edges, false)
	g.InitWeights(1, 8, 72)
	for _, variant := range allVariants {
		dev := testDevice()
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BFS(context.Background(), dev, dg, 0, variant)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateBFS(g, 0, res.Values); err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
		if res.Iterations != n {
			t.Errorf("%s: iterations = %d, want %d", variant, res.Iterations, n)
		}
		sp, err := SSSP(context.Background(), dev, dg, 0, variant)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateSSSP(g, 0, sp.Values); err != nil {
			t.Fatalf("%s SSSP: %v", variant, err)
		}
	}
}

func TestMisalignedEdgeBufferBase(t *testing.T) {
	// An edge buffer whose base is 32B off the 128B boundary: the aligned
	// variant still produces correct results (alignment is relative to
	// addresses, not list indices).
	g := testGraphs()[1]
	dev := testDevice()
	arena := dev.Arena()
	n := g.NumVertices()
	offsets, err := arena.Alloc("off", memsys.SpaceGPU, int64(n+1)*8)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := arena.Alloc("edg", memsys.SpaceHostPinned, g.NumEdges()*8,
		memsys.WithBaseOffset(32))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v <= n; v++ {
		offsets.PutU64(int64(v), uint64(g.Offsets[v]))
	}
	for i, d := range g.Dst {
		edges.PutU64(int64(i), uint64(d))
	}
	dg := &DeviceGraph{Graph: g, Transport: ZeroCopy, EdgeBytes: 8,
		Policy: StaticPolicyFor(ZeroCopy), Offsets: offsets, Edges: edges}

	src := graph.PickSources(g, 1, 1)[0]
	res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, src, res.Values); err != nil {
		t.Errorf("misaligned base broke correctness: %v", err)
	}
	// And the monitor should see split requests (the base offset defeats
	// index-based alignment).
	if dev.Monitor().SizeFraction(128) > 0.9 {
		t.Errorf("misaligned base should reduce the 128B share")
	}
}

func TestSelfLoopHeavyInput(t *testing.T) {
	// Self loops are dropped at construction; a traversal over what
	// remains must agree with the reference.
	edges := []graph.Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	g := graph.FromEdges("loops", 3, edges, false)
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BFS(context.Background(), dev, dg, 0, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, 0, res.Values); err != nil {
		t.Error(err)
	}
}

func TestRepeatedRunsIndependent(t *testing.T) {
	// Back-to-back runs on one device must not contaminate each other:
	// same source gives identical values and (with cold caches) identical
	// traffic.
	g := testGraphs()[0]
	dev := testDevice()
	dg, err := Upload(dev, g, UVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.PickSources(g, 1, 1)[0]
	dev.ResetUVMResidency()
	a, err := BFS(context.Background(), dev, dg, src, Merged)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetUVMResidency()
	b, err := BFS(context.Background(), dev, dg, src, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.UVMMigrations != b.Stats.UVMMigrations {
		t.Errorf("cold runs differ: %d vs %d migrations",
			a.Stats.UVMMigrations, b.Stats.UVMMigrations)
	}
	for v := range a.Values {
		if a.Values[v] != b.Values[v] {
			t.Fatalf("values diverge at %d", v)
		}
	}
	// A warm second run must migrate less.
	c, err := BFS(context.Background(), dev, dg, src, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.UVMMigrations >= b.Stats.UVMMigrations {
		t.Errorf("warm run should migrate fewer pages: %d vs %d",
			c.Stats.UVMMigrations, b.Stats.UVMMigrations)
	}
}
