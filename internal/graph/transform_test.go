package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestReorderPreservesStructure(t *testing.T) {
	g := RMAT("g", 1024, 8, 0.57, 0.19, 0.19, true, 1)
	g.InitWeights(2, 8, 72)
	perm := LocalityOrder(g)
	r := Reorder(g, perm)
	if r.NumVertices() != g.NumVertices() || r.NumEdges() != g.NumEdges() {
		t.Fatalf("sizes changed: %d/%d -> %d/%d",
			g.NumVertices(), g.NumEdges(), r.NumVertices(), r.NumEdges())
	}
	// Degrees are preserved under relabeling.
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(v) != r.Degree(int(perm[v])) {
			t.Fatalf("degree of %d changed under reordering", v)
		}
	}
	// Edges map exactly: (u,v) in g <=> (perm[u],perm[v]) in r, with the
	// same weight.
	for v := 0; v < g.NumVertices(); v++ {
		ns, ws := g.Neighbors(v), g.NeighborWeights(v)
		rv := int(perm[v])
		rns, rws := r.Neighbors(rv), r.NeighborWeights(rv)
		for i, u := range ns {
			found := false
			for j, x := range rns {
				if x == perm[u] {
					found = true
					if rws[j] != ws[i] {
						t.Fatalf("weight of edge %d->%d changed", v, u)
					}
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d lost in reordering", v, u)
			}
		}
	}
}

func TestReorderPreservesBFSDepths(t *testing.T) {
	g := Urand("g", 500, 10, 3)
	perm := LocalityOrder(g)
	r := Reorder(g, perm)
	src := PickSources(g, 1, 1)[0]
	lg := RefBFS(g, src)
	lr := RefBFS(r, int(perm[src]))
	for v := 0; v < g.NumVertices(); v++ {
		if lg[v] != lr[perm[v]] {
			t.Fatalf("BFS level changed for vertex %d: %d vs %d", v, lg[v], lr[perm[v]])
		}
	}
}

func TestLocalityOrderIsPermutation(t *testing.T) {
	g := Social("g", 512, 10, 2)
	perm := LocalityOrder(g)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("duplicate new ID %d", p)
		}
		seen[p] = true
	}
}

func TestLocalityOrderImprovesNeighborLocality(t *testing.T) {
	// On a web-like graph, BFS reordering should keep typical frontier
	// neighbors close in ID space; measure mean |dst - src| before/after.
	g := RMAT("g", 2048, 10, 0.57, 0.19, 0.19, true, 5)
	spread := func(g *CSR) float64 {
		var total float64
		for v := 0; v < g.NumVertices(); v++ {
			for _, u := range g.Neighbors(v) {
				d := int(u) - v
				if d < 0 {
					d = -d
				}
				total += float64(d)
			}
		}
		return total / float64(g.NumEdges())
	}
	r := Reorder(g, LocalityOrder(g))
	if spread(r) >= spread(g) {
		t.Errorf("locality reordering did not reduce ID spread: %.1f -> %.1f",
			spread(g), spread(r))
	}
}

func TestReorderBadPermPanics(t *testing.T) {
	g := diamond()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for wrong-length permutation")
		}
	}()
	Reorder(g, []uint32{0, 1})
}

func TestExtractSubgraph(t *testing.T) {
	g := diamond()
	g.InitWeights(1, 8, 72)
	active := []bool{false, true, false, true, false}
	sub := ExtractSubgraph(g, active)
	if sub.NumActive() != 2 {
		t.Fatalf("active = %d, want 2", sub.NumActive())
	}
	if sub.Vertices[0] != 1 || sub.Vertices[1] != 3 {
		t.Errorf("vertices = %v, want [1 3]", sub.Vertices)
	}
	// Vertex 1 has 4 neighbors, vertex 3 has 2.
	if len(sub.Dst) != 6 {
		t.Errorf("edges = %d, want 6", len(sub.Dst))
	}
	if sub.Offsets[1]-sub.Offsets[0] != 4 {
		t.Errorf("vertex 1 sublist length wrong")
	}
	// Neighbor lists and weights copied verbatim.
	for i, u := range g.Neighbors(1) {
		if sub.Dst[i] != u {
			t.Errorf("sub dst[%d] = %d, want %d", i, sub.Dst[i], u)
		}
		if sub.Weights[i] != g.NeighborWeights(1)[i] {
			t.Errorf("sub weight[%d] mismatch", i)
		}
	}
	if sub.TransferBytes(4) <= 0 {
		t.Errorf("TransferBytes should be positive")
	}
	// 2 IDs * 4 + 3 offsets * 4 + 6 dst * 4 + 6 weights * 4 = 68.
	if got := sub.TransferBytes(4); got != 68 {
		t.Errorf("TransferBytes(4) = %d, want 68", got)
	}
}

func TestExtractSubgraphEmpty(t *testing.T) {
	g := diamond()
	sub := ExtractSubgraph(g, make([]bool, 5))
	if sub.NumActive() != 0 || len(sub.Dst) != 0 {
		t.Errorf("empty frontier should give empty subgraph")
	}
	if len(sub.Offsets) != 1 {
		t.Errorf("offsets = %v, want single zero", sub.Offsets)
	}
}

func TestExtractSubgraphUnweighted(t *testing.T) {
	g := diamond()
	active := []bool{true, false, false, false, false}
	sub := ExtractSubgraph(g, active)
	if sub.Weights != nil {
		t.Errorf("unweighted parent should give unweighted subgraph")
	}
	if len(sub.Dst) != 2 {
		t.Errorf("edges = %d, want 2", len(sub.Dst))
	}
}

func TestIORoundTrip(t *testing.T) {
	g := RMAT("rt", 1024, 8, 0.57, 0.19, 0.19, true, 7)
	g.InitWeights(3, 8, 72)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if r.Name != g.Name || r.Directed != g.Directed {
		t.Errorf("metadata mismatch")
	}
	if r.NumVertices() != g.NumVertices() || r.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch")
	}
	for i := range g.Offsets {
		if r.Offsets[i] != g.Offsets[i] {
			t.Fatalf("offsets differ at %d", i)
		}
	}
	for i := range g.Dst {
		if r.Dst[i] != g.Dst[i] || r.Weights[i] != g.Weights[i] {
			t.Fatalf("edges/weights differ at %d", i)
		}
	}
}

func TestIOUnweightedRoundTrip(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if r.Weights != nil {
		t.Errorf("unweighted graph came back weighted")
	}
}

func TestIOFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csr")
	g := diamond()
	if err := g.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	r, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if r.NumEdges() != g.NumEdges() {
		t.Errorf("edge count mismatch after file round trip")
	}
}

func TestIOBadInputs(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("short"))); err == nil {
		t.Errorf("truncated input accepted")
	}
	if _, err := Read(bytes.NewReader(append([]byte("BADMAGIC"), make([]byte, 100)...))); err == nil {
		t.Errorf("bad magic accepted")
	}
	// Corrupt a valid stream's version field.
	var buf bytes.Buffer
	if err := diamond().Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 99 // version
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Errorf("bad version accepted")
	}
	if _, err := ReadFile(filepath.Join(os.TempDir(), "does-not-exist-emogi.csr")); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestIOCorruptOffsetsRejected(t *testing.T) {
	g := diamond()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// The offsets array starts after: 8 magic + 12 header + 4 name + 16
	// sizes = 40. Corrupt the second offset to break monotonicity.
	off := 40 + 8
	data[off] = 0xFF
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Errorf("corrupt offsets accepted")
	}
}
