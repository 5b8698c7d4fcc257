package core

import (
	"context"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// TestCompressionRoundTripProperty feeds randomized sorted adjacency
// structures through the encoder and checks exact reconstruction: for any
// graph, DecodeList must reproduce Neighbors verbatim, and the compressed
// extent must never exceed the plain 8-byte layout.
func TestCompressionRoundTripProperty(t *testing.T) {
	f := func(raw []uint16, nSeed uint8) bool {
		n := 50 + int(nSeed)%200
		edges := make([]graph.Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{
				Src: uint32(int(raw[i]) % n),
				Dst: uint32(int(raw[i+1]) % n),
			})
		}
		g := graph.FromEdges("q", n, edges, false)
		dev := testDevice()
		cdg, err := UploadCompressed(dev, g)
		if err != nil {
			return false
		}
		defer cdg.Free(dev)
		if cdg.CompressedBytes > cdg.PlainBytes && g.NumEdges() > 0 {
			return false
		}
		for v := 0; v < n; v++ {
			want := g.Neighbors(v)
			got := cdg.DecodeList(v, nil)
			if len(got) != len(want) {
				return false
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCompressedBFSAgreesWithPlainProperty: for random graphs, the
// compressed traversal and the plain traversal produce identical levels.
func TestCompressedBFSAgreesWithPlainProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := graph.Urand("q", 300, 10, seed)
		src := graph.PickSources(g, 1, seed)[0]

		devA := testDevice()
		dgA, err := Upload(devA, g, ZeroCopy, 8)
		if err != nil {
			return false
		}
		plain, err := BFS(context.Background(), devA, dgA, src, MergedAligned)
		if err != nil {
			return false
		}
		devB := testDevice()
		cdg, err := UploadCompressed(devB, g)
		if err != nil {
			return false
		}
		comp, err := BFSCompressed(context.Background(), devB, cdg, src)
		if err != nil {
			return false
		}
		for v := range plain.Values {
			if plain.Values[v] != comp.Values[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
