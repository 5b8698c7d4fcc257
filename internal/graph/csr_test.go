package graph

import (
	"testing"
	"testing/quick"
)

// diamond returns the paper's Figure 1 sample graph: 5 vertices,
// undirected edges {0-1, 0-2, 1-2, 1-3, 2-4, 3-4, 1-4}.
func diamond() *CSR {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {1, 4}}
	return FromEdges("fig1", 5, edges, false)
}

func TestFromEdgesFigure1(t *testing.T) {
	g := diamond()
	// The paper's Figure 1 CSR edge list: [1 2 | 0 2 3 4 | 0 1 4 | 1 4 |
	// 1 2 3]. (The figure prints offsets "0 2 6 9 12 14", but its own edge
	// list segments give vertex 4's start as 11 — the 12 is a typo; the
	// edge list is authoritative.)
	wantOffsets := []int64{0, 2, 6, 9, 11, 14}
	for i, w := range wantOffsets {
		if g.Offsets[i] != w {
			t.Fatalf("Offsets = %v, want %v", g.Offsets, wantOffsets)
		}
	}
	wantDst := []uint32{1, 2, 0, 2, 3, 4, 0, 1, 4, 1, 4, 1, 2, 3}
	for i, w := range wantDst {
		if g.Dst[i] != w {
			t.Fatalf("Dst = %v, want %v", g.Dst, wantDst)
		}
	}
	if g.NumVertices() != 5 || g.NumEdges() != 14 {
		t.Errorf("sizes: |V|=%d |E|=%d, want 5, 14", g.NumVertices(), g.NumEdges())
	}
}

func TestFromEdgesDropsSelfLoopsAndDups(t *testing.T) {
	edges := []Edge{{0, 0}, {1, 2}, {1, 2}, {2, 1}, {1, 1}}
	g := FromEdges("t", 3, edges, true)
	if g.NumEdges() != 2 {
		t.Errorf("|E| = %d, want 2 (dedup + self-loop removal)", g.NumEdges())
	}
	if g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Errorf("degrees wrong after dedup")
	}
}

func TestFromEdgesDirected(t *testing.T) {
	g := FromEdges("d", 3, []Edge{{0, 1}, {1, 2}}, true)
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Errorf("directed degrees wrong: %v", g.Offsets)
	}
	if !g.Directed {
		t.Errorf("Directed flag not set")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := diamond()
	for v := 0; v < g.NumVertices(); v++ {
		ns := g.Neighbors(v)
		for i := 1; i < len(ns); i++ {
			if ns[i] <= ns[i-1] {
				t.Fatalf("vertex %d neighbors not strictly sorted: %v", v, ns)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := diamond()
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	bad := *g
	bad.Offsets = append([]int64{}, g.Offsets...)
	bad.Offsets[2] = 100
	if err := bad.Validate(); err == nil {
		t.Errorf("non-monotone offsets accepted")
	}
	bad2 := *g
	bad2.Dst = append([]uint32{}, g.Dst...)
	bad2.Dst[0] = 99
	if err := bad2.Validate(); err == nil {
		t.Errorf("out-of-range dst accepted")
	}
	bad3 := *g
	bad3.Weights = []uint32{1, 2}
	if err := bad3.Validate(); err == nil {
		t.Errorf("weight length mismatch accepted")
	}
	bad4 := CSR{}
	if err := bad4.Validate(); err == nil {
		t.Errorf("empty offsets accepted")
	}
	bad5 := *g
	bad5.Offsets = append([]int64{}, g.Offsets...)
	bad5.Offsets[0] = 1
	if err := bad5.Validate(); err == nil {
		t.Errorf("offsets[0] != 0 accepted")
	}
}

func TestInitWeights(t *testing.T) {
	g := diamond()
	g.InitWeights(7, 8, 72)
	if len(g.Weights) != len(g.Dst) {
		t.Fatalf("weights length mismatch")
	}
	for i, w := range g.Weights {
		if w < 8 || w > 72 {
			t.Errorf("weight[%d] = %d outside [8,72]", i, w)
		}
	}
	// Symmetric: weight(u->v) == weight(v->u) for undirected graphs.
	for v := 0; v < g.NumVertices(); v++ {
		ns, ws := g.Neighbors(v), g.NeighborWeights(v)
		for i, u := range ns {
			back := g.Neighbors(int(u))
			wback := g.NeighborWeights(int(u))
			for j, x := range back {
				if int(x) == v && wback[j] != ws[i] {
					t.Errorf("asymmetric weight %d-%d: %d vs %d", v, u, ws[i], wback[j])
				}
			}
		}
	}
	// Deterministic under the same seed.
	g2 := diamond()
	g2.InitWeights(7, 8, 72)
	for i := range g.Weights {
		if g.Weights[i] != g2.Weights[i] {
			t.Errorf("weights not deterministic at %d", i)
		}
	}
}

func TestInitWeightsBadRangePanics(t *testing.T) {
	g := diamond()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for hi < lo")
		}
	}()
	g.InitWeights(1, 10, 5)
}

func TestByteSizeHelpers(t *testing.T) {
	g := diamond()
	g.InitWeights(1, 8, 72)
	if got := g.EdgeListBytes(8); got != 14*8 {
		t.Errorf("EdgeListBytes(8) = %d", got)
	}
	if got := g.EdgeListBytes(4); got != 14*4 {
		t.Errorf("EdgeListBytes(4) = %d", got)
	}
	if got := g.WeightListBytes(); got != 14*4 {
		t.Errorf("WeightListBytes = %d", got)
	}

	var unweighted CSR
	if unweighted.WeightListBytes() != 0 {
		t.Errorf("unweighted WeightListBytes should be 0")
	}
}

func TestAvgDegree(t *testing.T) {
	g := diamond()
	if got := g.AvgDegree(); got != 14.0/5.0 {
		t.Errorf("AvgDegree = %v", got)
	}
	empty := &CSR{Offsets: []int64{0}}
	if empty.AvgDegree() != 0 {
		t.Errorf("empty graph AvgDegree should be 0")
	}
}

// Property: FromEdges always produces a valid CSR with symmetric adjacency
// for undirected graphs, regardless of the input arc soup.
func TestFromEdgesProperty(t *testing.T) {
	f := func(raw []uint16, directed bool) bool {
		const n = 64
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{uint32(raw[i] % n), uint32(raw[i+1] % n)})
		}
		g := FromEdges("q", n, edges, directed)
		if err := g.Validate(); err != nil {
			return false
		}
		if directed {
			return true
		}
		// Undirected: adjacency must be symmetric.
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(v) {
				found := false
				for _, x := range g.Neighbors(int(u)) {
					if int(x) == v {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
