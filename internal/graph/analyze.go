package graph

import (
	"repro/internal/stats"
)

// DegreeCDF returns the cumulative distribution of *edges* over vertex
// degree: the value at x is the fraction of all arcs whose source vertex
// has degree <= x. This is exactly the paper's Figure 6 ("Number of Edges
// CDF vs Degree of Vertex"), which explains which graphs benefit from the
// merge and align optimizations.
func DegreeCDF(g *CSR) *stats.CDF {
	n := g.NumVertices()
	vals := make([]int64, n)
	ws := make([]float64, n)
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		vals[v] = d
		ws[v] = float64(d)
	}
	return stats.NewCDF(vals, ws)
}

// DegreeStats summarizes a graph's degree distribution.
type DegreeStats struct {
	Min, Max int64
	Mean     float64
	Isolated int // vertices with degree 0
}

// AnalyzeDegrees computes degree statistics in one pass.
func AnalyzeDegrees(g *CSR) DegreeStats {
	n := g.NumVertices()
	st := DegreeStats{Min: int64(^uint64(0) >> 1)}
	if n == 0 {
		st.Min = 0
		return st
	}
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		if d == 0 {
			st.Isolated++
		}
	}
	st.Mean = g.AvgDegree()
	return st
}

// TableRow is one dataset's line of the paper's Table 2: vertex and edge
// counts and the byte sizes of the edge and weight lists.
type TableRow struct {
	Vertices    int
	Edges       int64
	EdgeBytes   int64 // 8-byte elements
	WeightBytes int64 // 4-byte weights
	Directed    bool
	AvgDegree   float64
}

// Table2Row summarizes a graph for the dataset inventory.
func Table2Row(g *CSR) TableRow {
	return TableRow{
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		EdgeBytes:   g.EdgeListBytes(8),
		WeightBytes: g.WeightListBytes(),
		Directed:    g.Directed,
		AvgDegree:   g.AvgDegree(),
	}
}
