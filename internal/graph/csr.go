// Package graph provides the graph substrate: compressed sparse row (CSR)
// storage, deterministic generators reproducing the character of the
// paper's six evaluation datasets (Table 2), degree analysis (Figure 6),
// binary serialization, CPU reference algorithms used to validate GPU
// results, and the preprocessing transforms (reordering, active-subgraph
// extraction) that the HALO- and Subway-style baselines depend on.
package graph

import (
	"fmt"
	"slices"
)

// CSR is a graph in compressed sparse row form: Offsets[v]..Offsets[v+1]
// delimits vertex v's neighbor list in Dst (§2.1, Figure 1).
//
// For undirected graphs every edge appears in both endpoint lists, so
// NumEdges counts directed arcs — the same convention as the paper's |E|.
type CSR struct {
	Name     string // short symbol, e.g. "GK"
	FullName string // descriptive name, e.g. "kron-scaled"
	Directed bool

	Offsets []int64  // len NumVertices+1, non-decreasing
	Dst     []uint32 // len NumEdges, each < NumVertices
	Weights []uint32 // len NumEdges or nil for unweighted
}

// NumVertices returns |V|.
func (g *CSR) NumVertices() int { return len(g.Offsets) - 1 }

// NumEdges returns |E| (directed arc count).
func (g *CSR) NumEdges() int64 { return int64(len(g.Dst)) }

// Degree returns the out-degree of vertex v.
func (g *CSR) Degree(v int) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Neighbors returns vertex v's neighbor list as a shared sub-slice.
func (g *CSR) Neighbors(v int) []uint32 {
	return g.Dst[g.Offsets[v]:g.Offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v), or nil for
// an unweighted graph.
func (g *CSR) NeighborWeights(v int) []uint32 {
	if g.Weights == nil {
		return nil
	}
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// AvgDegree returns |E| / |V|.
func (g *CSR) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// EdgeListBytes returns the edge list size with the given element width
// (8 bytes in the paper's main experiments, 4 for the Subway comparison).
func (g *CSR) EdgeListBytes(elemBytes int) int64 {
	return g.NumEdges() * int64(elemBytes)
}

// WeightListBytes returns the weight list size (4-byte weights, Table 2).
func (g *CSR) WeightListBytes() int64 {
	if g.Weights == nil {
		return 0
	}
	return int64(len(g.Weights)) * 4
}

// Validate checks structural invariants: offset monotonicity, bounds, and
// weight-array parity. Generators and loaders call it before returning.
func (g *CSR) Validate() error {
	if len(g.Offsets) == 0 {
		return fmt.Errorf("graph %s: empty offsets array", g.Name)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph %s: offsets[0] = %d, want 0", g.Name, g.Offsets[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			return fmt.Errorf("graph %s: offsets not monotone at vertex %d", g.Name, v)
		}
	}
	if g.Offsets[n] != int64(len(g.Dst)) {
		return fmt.Errorf("graph %s: offsets[n] = %d != len(dst) = %d",
			g.Name, g.Offsets[n], len(g.Dst))
	}
	for i, d := range g.Dst {
		if int(d) >= n {
			return fmt.Errorf("graph %s: dst[%d] = %d out of range (n=%d)", g.Name, i, d, n)
		}
	}
	if g.Weights != nil && len(g.Weights) != len(g.Dst) {
		return fmt.Errorf("graph %s: weights length %d != edges %d",
			g.Name, len(g.Weights), len(g.Dst))
	}
	return nil
}

// Edge is one directed arc used during construction.
type Edge struct {
	Src, Dst uint32
}

// FromEdges builds a CSR from an arc list. Self-loops are dropped and
// duplicate arcs are merged. If undirected, the reverse of every arc is
// added before deduplication, so both endpoints see the edge. Each list is
// sorted, so the result does not depend on the order of edges.
func FromEdges(name string, n int, edges []Edge, directed bool) *CSR {
	// Counting sort by source; an undirected arc also scatters its reverse.
	counts := make([]int64, n+1)
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		counts[e.Src+1]++
		if !directed {
			counts[e.Dst+1]++
		}
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	dst := make([]uint32, counts[n])
	next := slices.Clone(counts[:n])
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		dst[next[e.Src]] = e.Dst
		next[e.Src]++
		if !directed {
			dst[next[e.Dst]] = e.Src
			next[e.Dst]++
		}
	}
	// Sort each adjacency list and deduplicate in place, turning counts
	// into the offsets of the compacted lists as they are written.
	offsets := counts
	w := int64(0)
	for v := 0; v < n; v++ {
		adj := dst[offsets[v]:offsets[v+1]]
		offsets[v] = w
		slices.Sort(adj)
		w += int64(copy(dst[w:], slices.Compact(adj)))
	}
	offsets[n] = w
	g := &CSR{
		Name:     name,
		Directed: directed,
		Offsets:  offsets,
		Dst:      make([]uint32, w),
	}
	copy(g.Dst, dst) // exact length: the pre-deduplication array is not retained
	if err := g.Validate(); err != nil {
		panic("graph: FromEdges produced invalid CSR: " + err.Error())
	}
	return g
}

// InitWeights assigns deterministic pseudo-random integer weights in
// [lo, hi] to every arc (the paper randomly initializes weights between 8
// and 72, §5.2). For undirected graphs the weight is symmetric: arc (u,v)
// and (v,u) get the same weight, derived from the unordered pair.
func (g *CSR) InitWeights(seed int64, lo, hi uint32) {
	if hi < lo {
		panic("graph: InitWeights hi < lo")
	}
	span := uint64(hi-lo) + 1
	g.Weights = make([]uint32, len(g.Dst))
	for v := 0; v < g.NumVertices(); v++ {
		for i := g.Offsets[v]; i < g.Offsets[v+1]; i++ {
			a, b := uint64(v), uint64(g.Dst[i])
			if !g.Directed && a > b {
				a, b = b, a
			}
			g.Weights[i] = lo + uint32(mix(a, b, uint64(seed))%span)
		}
	}
}

// mix is a splitmix64-style hash over an edge and seed, giving weights that
// are deterministic, uniform, and symmetric for unordered pairs.
func mix(a, b, seed uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9 ^ seed*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
