package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func TestCompressRoundTrip(t *testing.T) {
	for _, g := range testGraphs() {
		dev := testDevice()
		cdg, err := UploadCompressed(dev, g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			want := g.Neighbors(v)
			got := cdg.DecodeList(v, nil)
			if len(got) != len(want) {
				t.Fatalf("%s vertex %d: decoded %d neighbors, want %d",
					g.Name, v, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s vertex %d neighbor %d: %d != %d",
						g.Name, v, i, got[i], want[i])
				}
			}
		}
		cdg.Free(dev)
	}
}

func TestCompressShrinks(t *testing.T) {
	// Web graphs have strong ID locality: deltas are tiny and the ratio
	// should be large. 8-byte plain elements compress at least 3x.
	g := graph.Web("sk", 4096, 24, 5)
	dev := testDevice()
	cdg, err := UploadCompressed(dev, g)
	if err != nil {
		t.Fatal(err)
	}
	if r := cdg.Ratio(); r < 3 {
		t.Errorf("web graph compression ratio = %.2f, want >= 3", r)
	}
	if cdg.CompressedBytes >= cdg.PlainBytes {
		t.Errorf("compression did not shrink: %d >= %d",
			cdg.CompressedBytes, cdg.PlainBytes)
	}
}

func TestCompressEmptyLists(t *testing.T) {
	g := graph.FromEdges("sparse", 10, []graph.Edge{{Src: 0, Dst: 9}}, false)
	dev := testDevice()
	cdg, err := UploadCompressed(dev, g)
	if err != nil {
		t.Fatal(err)
	}
	if got := cdg.DecodeList(5, nil); got != nil {
		t.Errorf("isolated vertex decoded %v, want nil", got)
	}
	if got := cdg.DecodeList(0, nil); len(got) != 1 || got[0] != 9 {
		t.Errorf("DecodeList(0) = %v, want [9]", got)
	}
}

func TestCompressWideDeltas(t *testing.T) {
	// A list whose gaps exceed 16 bits must fall back to 4-byte deltas and
	// still round-trip.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 70000}, {Src: 0, Dst: 200000}}
	g := graph.FromEdges("wide", 200001, edges, true)
	dev := testDevice()
	cdg, err := UploadCompressed(dev, g)
	if err != nil {
		t.Fatal(err)
	}
	got := cdg.DecodeList(0, nil)
	want := []uint32{1, 70000, 200000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wide delta decode wrong: %v", got)
		}
	}
}

func TestBFSCompressedCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		dev := testDevice()
		cdg, err := UploadCompressed(dev, g)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.PickSources(g, 1, 41)[0]
		res, err := BFSCompressed(context.Background(), dev, cdg, src)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := ValidateBFS(g, src, res.Values); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestBFSCompressedBadSource(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	cdg, _ := UploadCompressed(dev, g)
	if _, err := BFSCompressed(context.Background(), dev, cdg, -1); err == nil {
		t.Errorf("bad source accepted")
	}
}

// TestCompressedMovesFewerBytes: on a local-delta graph the compressed
// traversal moves meaningfully fewer PCIe payload bytes than the plain
// merged+aligned kernel — §6's premise.
func TestCompressedMovesFewerBytes(t *testing.T) {
	g := graph.Web("sk", 4096, 24, 5)
	src := graph.PickSources(g, 1, 1)[0]

	devPlain := testDevice()
	dgPlain, err := Upload(devPlain, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := BFS(context.Background(), devPlain, dgPlain, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}

	devComp := testDevice()
	cdg, err := UploadCompressed(devComp, g)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := BFSCompressed(context.Background(), devComp, cdg, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, src, comp.Values); err != nil {
		t.Fatal(err)
	}
	if float64(comp.Stats.PCIePayloadBytes) > 0.6*float64(plain.Stats.PCIePayloadBytes) {
		t.Errorf("compressed run moved %d bytes, want well below plain's %d",
			comp.Stats.PCIePayloadBytes, plain.Stats.PCIePayloadBytes)
	}
	if comp.Elapsed >= plain.Elapsed {
		t.Errorf("compressed traversal should be faster here: %v vs %v",
			comp.Elapsed, plain.Elapsed)
	}
}
