package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// testDevice returns an uncapped device on the calibrated Gen3 link.
func testDevice() *gpu.Device {
	return gpu.NewDevice(gpu.Config{
		Name:  "test-v100",
		Tiers: memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
}

// smallDevice returns a device with a small GPU memory so UVM
// oversubscription paths get exercised.
func smallDevice(memBytes int64) *gpu.Device {
	return gpu.NewDevice(gpu.Config{
		Name:  "test-small",
		Tiers: memsys.TwoTier(memBytes, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
}

// testGraphs returns small instances of every generator family, weighted.
func testGraphs() []*graph.CSR {
	gs := []*graph.CSR{
		graph.RMAT("gk", 512, 10, 0.57, 0.19, 0.19, true, 1),
		graph.Urand("gu", 500, 12, 2),
		graph.Dense("ml", 120, 48, 16, 3),
		graph.Social("fs", 512, 10, 4),
		graph.Web("sk", 600, 14, 5),
	}
	for _, g := range gs {
		g.InitWeights(7, 8, 72)
	}
	return gs
}

var allVariants = []Variant{Naive, Merged, MergedAligned}

func TestVariantAndTransportStrings(t *testing.T) {
	if Naive.String() != "Naive" || Merged.String() != "Merged" ||
		MergedAligned.String() != "Merged+Aligned" {
		t.Errorf("variant names wrong")
	}
	if ZeroCopy.String() != "zerocopy" || UVM.String() != "uvm" {
		t.Errorf("transport names wrong")
	}
	if Variant(9).String() == "" || Transport(9).String() == "" {
		t.Errorf("unknown values should still render")
	}
}

func TestUploadLayout(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatalf("Upload: %v", err)
	}
	if dg.Offsets.Space != memsys.SpaceGPU {
		t.Errorf("vertex list must live in GPU memory (§4.2)")
	}
	if dg.Edges.Space != memsys.SpaceHostPinned {
		t.Errorf("zero-copy edges must be pinned host memory")
	}
	if dg.Weights == nil || dg.Weights.Space != memsys.SpaceHostPinned {
		t.Errorf("weights should follow the edge list's space")
	}
	if dg.ElemsPerCacheLine() != 16 {
		t.Errorf("8B elements: 16 per line, got %d", dg.ElemsPerCacheLine())
	}
	// Data integrity.
	for i := 0; i < 100; i++ {
		if uint32(dg.Edges.U64(int64(i))) != g.Dst[i] {
			t.Fatalf("edge %d corrupted on upload", i)
		}
	}
	dg.Free(dev)

	dgU, err := Upload(dev, g, UVM, 4)
	if err != nil {
		t.Fatalf("Upload UVM: %v", err)
	}
	if dgU.Edges.Space != memsys.SpaceUVM {
		t.Errorf("UVM edges in wrong space")
	}
	if dgU.ElemsPerCacheLine() != 32 {
		t.Errorf("4B elements: 32 per line, got %d", dgU.ElemsPerCacheLine())
	}
	if uint32(dgU.Edges.U32(5)) != g.Dst[5] {
		t.Errorf("4-byte edge upload corrupted")
	}
	dgU.Free(dev)
}

func TestUploadErrors(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	if _, err := Upload(dev, g, ZeroCopy, 6); err == nil {
		t.Errorf("bad element width accepted")
	}
	bad := &graph.CSR{Offsets: []int64{0, 5}, Dst: []uint32{0}}
	if _, err := Upload(dev, bad, ZeroCopy, 8); err == nil {
		t.Errorf("invalid graph accepted")
	}
	tiny := smallDevice(1024) // too small for the vertex list
	if _, err := Upload(tiny, g, ZeroCopy, 8); err == nil {
		t.Errorf("expected GPU OOM for the vertex list")
	}
}

// TestBFSCorrectnessMatrix validates BFS on every graph family, variant,
// and transport against the CPU reference.
func TestBFSCorrectnessMatrix(t *testing.T) {
	for _, g := range testGraphs() {
		for _, transport := range []Transport{ZeroCopy, UVM} {
			dev := testDevice()
			dg, err := Upload(dev, g, transport, 8)
			if err != nil {
				t.Fatalf("%s/%s: upload: %v", g.Name, transport, err)
			}
			src := graph.PickSources(g, 1, 11)[0]
			for _, variant := range allVariants {
				res, err := BFS(context.Background(), dev, dg, src, variant)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", g.Name, transport, variant, err)
				}
				if err := ValidateBFS(g, src, res.Values); err != nil {
					t.Errorf("%s/%s/%s: %v", g.Name, transport, variant, err)
				}
				if res.Iterations <= 0 || res.Elapsed <= 0 {
					t.Errorf("%s/%s/%s: degenerate result: %+v",
						g.Name, transport, variant, res)
				}
			}
		}
	}
}

// TestSSSPCorrectnessMatrix validates SSSP against Dijkstra.
func TestSSSPCorrectnessMatrix(t *testing.T) {
	for _, g := range testGraphs() {
		dev := testDevice()
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatalf("%s: upload: %v", g.Name, err)
		}
		src := graph.PickSources(g, 1, 13)[0]
		for _, variant := range allVariants {
			res, err := SSSP(context.Background(), dev, dg, src, variant)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, variant, err)
			}
			if err := ValidateSSSP(g, src, res.Values); err != nil {
				t.Errorf("%s/%s: %v", g.Name, variant, err)
			}
		}
	}
}

func TestSSSPUVMTransport(t *testing.T) {
	g := testGraphs()[1]
	dev := testDevice()
	dg, err := Upload(dev, g, UVM, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.PickSources(g, 1, 13)[0]
	res, err := SSSP(context.Background(), dev, dg, src, Merged)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSSSP(g, src, res.Values); err != nil {
		t.Error(err)
	}
	if res.Stats.UVMMigrations == 0 {
		t.Errorf("UVM transport should migrate pages")
	}
}

// TestCCCorrectnessMatrix validates CC against union-find on the
// undirected families.
func TestCCCorrectnessMatrix(t *testing.T) {
	for _, g := range testGraphs() {
		if g.Directed {
			continue
		}
		for _, transport := range []Transport{ZeroCopy, UVM} {
			dev := testDevice()
			dg, err := Upload(dev, g, transport, 8)
			if err != nil {
				t.Fatalf("%s: upload: %v", g.Name, err)
			}
			for _, variant := range allVariants {
				res, err := CC(context.Background(), dev, dg, variant)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", g.Name, transport, variant, err)
				}
				if err := ValidateCC(g, res.Values); err != nil {
					t.Errorf("%s/%s/%s: %v", g.Name, transport, variant, err)
				}
				if res.Source != -1 {
					t.Errorf("CC result should have no source")
				}
			}
		}
	}
}

func TestCCRejectsDirected(t *testing.T) {
	g := graph.Web("sk", 300, 10, 1)
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CC(context.Background(), dev, dg, Merged); err == nil {
		t.Errorf("CC on a directed graph should error")
	}
}

func TestBFSBadSource(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	if _, err := BFS(context.Background(), dev, dg, -1, Merged); err == nil {
		t.Errorf("negative source accepted")
	}
	if _, err := BFS(context.Background(), dev, dg, g.NumVertices(), Merged); err == nil {
		t.Errorf("out-of-range source accepted")
	}
	if _, err := SSSP(context.Background(), dev, dg, -1, Merged); err == nil {
		t.Errorf("SSSP negative source accepted")
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g := graph.Urand("u", 200, 8, 1) // no weights
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	if _, err := SSSP(context.Background(), dev, dg, 0, Merged); err == nil {
		t.Errorf("unweighted SSSP accepted")
	}
}

func TestBFSWith4ByteEdges(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 4)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.PickSources(g, 1, 11)[0]
	res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, src, res.Values); err != nil {
		t.Error(err)
	}
}

// TestBFSIterationsEqualDepth: the kernel-per-level structure means the
// launch count equals the BFS eccentricity of the source plus the final
// empty round.
func TestBFSIterationsEqualDepth(t *testing.T) {
	g := graph.Urand("u", 400, 8, 3)
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	src := graph.PickSources(g, 1, 1)[0]
	res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(0)
	for _, l := range graph.RefBFS(g, src) {
		if l != graph.InfDist && l > want {
			want = l
		}
	}
	if res.Iterations != int(want)+1 {
		t.Errorf("iterations = %d, want depth+1 = %d", res.Iterations, want+1)
	}
}

// TestRequestCountOrdering encodes Figure 7: on every graph, the merge
// optimization reduces PCIe request counts and alignment reduces them
// further (or at worst leaves them equal).
func TestRequestCountOrdering(t *testing.T) {
	for _, g := range testGraphs() {
		src := graph.PickSources(g, 1, 17)[0]
		reqs := make(map[Variant]uint64)
		for _, variant := range allVariants {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				t.Fatal(err)
			}
			res, err := BFS(context.Background(), dev, dg, src, variant)
			if err != nil {
				t.Fatal(err)
			}
			reqs[variant] = res.Stats.PCIeRequests
		}
		if reqs[Merged] >= reqs[Naive] {
			t.Errorf("%s: merged (%d) should use fewer requests than naive (%d)",
				g.Name, reqs[Merged], reqs[Naive])
		}
		if reqs[MergedAligned] > reqs[Merged] {
			t.Errorf("%s: aligned (%d) should not exceed merged (%d)",
				g.Name, reqs[MergedAligned], reqs[Merged])
		}
	}
}

// TestAlignedRequestSizeShift encodes Figure 5: the aligned variant's
// 128-byte request share must be at least the merged variant's on every
// graph.
func TestAlignedRequestSizeShift(t *testing.T) {
	for _, g := range testGraphs() {
		src := graph.PickSources(g, 1, 19)[0]
		frac := make(map[Variant]float64)
		for _, variant := range []Variant{Naive, Merged, MergedAligned} {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := BFS(context.Background(), dev, dg, src, variant); err != nil {
				t.Fatal(err)
			}
			frac[variant] = dev.Monitor().SizeFraction(128)
		}
		if frac[MergedAligned] < frac[Merged]-1e-9 {
			t.Errorf("%s: aligned 128B share %.3f below merged %.3f",
				g.Name, frac[MergedAligned], frac[Merged])
		}
		if frac[Naive] > 0.1 {
			t.Errorf("%s: naive 128B share %.3f should be near zero", g.Name, frac[Naive])
		}
	}
}

// TestZeroCopyAmplificationBound encodes Figure 10's EMOGI side: the bytes
// EMOGI moves are bounded by a small multiple of the bytes it needs.
func TestZeroCopyAmplificationBound(t *testing.T) {
	for _, g := range testGraphs() {
		dev := testDevice()
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.PickSources(g, 1, 23)[0]
		res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
		if err != nil {
			t.Fatal(err)
		}
		reached := graph.ReachableCount(res.Values)
		if reached < 2 {
			continue
		}
		// Upper bound on useful bytes: every arc of the graph once.
		useful := float64(g.NumEdges() * 8)
		amp := float64(res.Stats.PCIePayloadBytes) / useful
		if amp > 2.0 {
			t.Errorf("%s: EMOGI amplification %.2f too high", g.Name, amp)
		}
	}
}

func TestAppDispatcher(t *testing.T) {
	g := testGraphs()[1]
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	src := graph.PickSources(g, 1, 3)[0]
	for _, name := range []string{"sssp", "bfs", "cc", "sswp"} {
		res, err := RunAlgo(context.Background(), dev, dg, name, src, Merged)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Validate(g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	var unknown *UnknownAlgorithmError
	if _, err := RunAlgo(context.Background(), dev, dg, "nope", src, Merged); !errors.As(err, &unknown) {
		t.Errorf("unknown algorithm: got %v, want *UnknownAlgorithmError", err)
	}
	bad := &Result{App: "nope"}
	if err := bad.Validate(g); err == nil {
		t.Errorf("unknown result app validated")
	}
	// Validation catches wrong lengths and wrong values.
	short := &Result{App: "BFS", Source: src, Values: []uint32{1}}
	if err := short.Validate(g); err == nil {
		t.Errorf("short result validated")
	}
	wrong := &Result{App: "CC", Values: make([]uint32, g.NumVertices())}
	for i := range wrong.Values {
		wrong.Values[i] = 7
	}
	if err := wrong.Validate(g); err == nil {
		t.Errorf("wrong CC labels validated")
	}
}

func TestCompressedRatioZero(t *testing.T) {
	var c CompressedDeviceGraph
	if c.Ratio() != 0 {
		t.Errorf("empty compressed graph ratio should be 0")
	}
}
