package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func TestEdgeCentricCOOLayout(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	ec, err := UploadEdgeCentric(dev, g)
	if err != nil {
		t.Fatal(err)
	}
	defer ec.Free(dev)
	// Spot-check COO pairs against CSR.
	i := int64(0)
	for v := 0; v < g.NumVertices() && i < 500; v++ {
		for _, u := range g.Neighbors(v) {
			if ec.Src.U32(i) != uint32(v) || ec.Dst.U32(i) != u {
				t.Fatalf("COO pair %d = (%d, %d), want (%d, %d)",
					i, ec.Src.U32(i), ec.Dst.U32(i), v, u)
			}
			i++
		}
	}
}

func TestBFSEdgeCentricCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		dev := testDevice()
		ec, err := UploadEdgeCentric(dev, g)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.PickSources(g, 1, 59)[0]
		res, err := BFSEdgeCentric(context.Background(), dev, ec, src)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := ValidateBFS(g, src, res.Values); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		ec.Free(dev)
	}
}

func TestBFSEdgeCentricBadSource(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	ec, _ := UploadEdgeCentric(dev, g)
	if _, err := BFSEdgeCentric(context.Background(), dev, ec, -1); err == nil {
		t.Errorf("bad source accepted")
	}
}

func TestUploadEdgeCentricInvalid(t *testing.T) {
	bad := &graph.CSR{Offsets: []int64{0, 5}, Dst: []uint32{0}}
	dev := testDevice()
	if _, err := UploadEdgeCentric(dev, bad); err == nil {
		t.Errorf("invalid graph accepted")
	}
}

// TestEdgeCentricStreamsEverything encodes the method's defining cost: the
// bytes moved grow with iterations x |E|, so on a multi-level traversal it
// moves far more than the vertex-centric scatter — §2.1's reason EMOGI is
// vertex-centric.
func TestEdgeCentricStreamsEverything(t *testing.T) {
	g := testGraphs()[0] // skewed graph, several BFS levels
	src := graph.PickSources(g, 1, 61)[0]

	devE := testDevice()
	ec, err := UploadEdgeCentric(devE, g)
	if err != nil {
		t.Fatal(err)
	}
	edgeRes, err := BFSEdgeCentric(context.Background(), devE, ec, src)
	if err != nil {
		t.Fatal(err)
	}

	devV := testDevice()
	dg, err := Upload(devV, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	vertRes, err := BFS(context.Background(), devV, dg, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}

	// Per iteration, edge-centric must stream ~|E| * 8 bytes (two 4B
	// columns); the source column alone is always fully read.
	minPerIter := uint64(g.NumEdges() * 4)
	if edgeRes.Stats.PCIePayloadBytes < minPerIter*uint64(edgeRes.Iterations) {
		t.Errorf("edge-centric moved %d bytes over %d iterations, below the %d floor",
			edgeRes.Stats.PCIePayloadBytes, edgeRes.Iterations,
			minPerIter*uint64(edgeRes.Iterations))
	}
	// With >2 levels it must move more total bytes than vertex-centric,
	// despite its perfect request shapes.
	if edgeRes.Iterations > 2 &&
		edgeRes.Stats.PCIePayloadBytes <= vertRes.Stats.PCIePayloadBytes {
		t.Errorf("edge-centric (%d bytes) should out-stream vertex-centric (%d bytes)",
			edgeRes.Stats.PCIePayloadBytes, vertRes.Stats.PCIePayloadBytes)
	}
	// And its requests are mostly 128B (the source column is perfectly
	// sequential; the destination column is gathered under sparse masks).
	frac := devE.Monitor().SizeFraction(128)
	if frac < 0.8 {
		t.Errorf("edge-centric 128B share = %.2f, want > 0.8", frac)
	}
}
