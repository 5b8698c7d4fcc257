package graph

// This file implements Subway-style active-subgraph extraction (Table 3).
// Subway [45] preprocesses each iteration's frontier on the host: it
// gathers the neighbor lists of currently active vertices into a compact
// subgraph, transfers only that subgraph to the GPU, and runs the kernel
// on GPU-resident data. The win is moving fewer bytes; the cost is the
// per-iteration host preprocessing and transfer.

// Subgraph is one iteration's compacted active subgraph.
type Subgraph struct {
	// Vertices holds the original IDs of the active vertices, ascending.
	Vertices []uint32
	// Offsets/Dst/Weights form a CSR over the *local* vertex indices:
	// Offsets[i] delimits the neighbor list of Vertices[i]. Dst still holds
	// original destination IDs (Subway keeps a global value array indexed
	// by original ID).
	Offsets []int64
	Dst     []uint32
	Weights []uint32
}

// NumActive returns the number of active vertices in the subgraph.
func (s *Subgraph) NumActive() int { return len(s.Vertices) }

// TransferBytes returns the bytes that must cross the interconnect to
// place this subgraph in GPU memory with the given edge element width:
// the active vertex array (4B IDs), the offset array (one element per
// active vertex + 1), the destination array, and weights if present.
func (s *Subgraph) TransferBytes(elemBytes int) int64 {
	n := int64(len(s.Vertices))
	e := int64(len(s.Dst))
	total := n*4 + (n+1)*int64(elemBytes) + e*int64(elemBytes)
	if s.Weights != nil {
		total += e * 4
	}
	return total
}

// ExtractSubgraph gathers the neighbor lists of all vertices with
// active[v] set into a compact subgraph, copying weights when the parent
// graph has them. This is the host-side work Subway's "subgraph
// generation" step performs each iteration.
func ExtractSubgraph(g *CSR, active []bool) *Subgraph {
	n := g.NumVertices()
	sub := &Subgraph{}
	var edges int64
	for v := 0; v < n; v++ {
		if active[v] {
			sub.Vertices = append(sub.Vertices, uint32(v))
			edges += g.Degree(v)
		}
	}
	sub.Offsets = make([]int64, len(sub.Vertices)+1)
	sub.Dst = make([]uint32, 0, edges)
	if g.Weights != nil {
		sub.Weights = make([]uint32, 0, edges)
	}
	for i, v := range sub.Vertices {
		sub.Offsets[i] = int64(len(sub.Dst))
		sub.Dst = append(sub.Dst, g.Neighbors(int(v))...)
		if g.Weights != nil {
			sub.Weights = append(sub.Weights, g.NeighborWeights(int(v))...)
		}
		_ = i
	}
	sub.Offsets[len(sub.Vertices)] = int64(len(sub.Dst))
	return sub
}
