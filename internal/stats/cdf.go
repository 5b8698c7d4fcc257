package stats

import "sort"

// CDF is an empirical, weighted cumulative distribution function over integer
// support, used e.g. for the paper's Figure 6 (cumulative fraction of edges
// as a function of vertex degree).
type CDF struct {
	xs []int64   // ascending, distinct support points
	cw []float64 // cumulative weight at each support point
	tw float64   // total weight
}

// NewCDF builds a CDF from (value, weight) pairs. Duplicate values are
// merged. Weights must be non-negative; pairs with zero weight are kept so
// the support still records them.
func NewCDF(values []int64, weights []float64) *CDF {
	if len(values) != len(weights) {
		panic("stats: NewCDF values/weights length mismatch")
	}
	agg := make(map[int64]float64, len(values))
	for i, v := range values {
		if weights[i] < 0 {
			panic("stats: NewCDF negative weight")
		}
		agg[v] += weights[i]
	}
	c := &CDF{
		xs: make([]int64, 0, len(agg)),
		cw: make([]float64, 0, len(agg)),
	}
	for v := range agg {
		c.xs = append(c.xs, v)
	}
	sort.Slice(c.xs, func(i, j int) bool { return c.xs[i] < c.xs[j] })
	run := 0.0
	for _, v := range c.xs {
		run += agg[v]
		c.cw = append(c.cw, run)
	}
	c.tw = run
	return c
}

// At returns P(X <= x), in [0, 1]. An empty CDF returns 0.
func (c *CDF) At(x int64) float64 {
	if c == nil || c.tw == 0 {
		return 0
	}
	// Find the last support point <= x.
	i := sort.Search(len(c.xs), func(i int) bool { return c.xs[i] > x })
	if i == 0 {
		return 0
	}
	return c.cw[i-1] / c.tw
}

// Sample evaluates the CDF at each of the given points, returning
// P(X <= x) for each. Useful for rendering fixed-axis plots.
func (c *CDF) Sample(points []int64) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = c.At(p)
	}
	return out
}
