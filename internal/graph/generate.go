package graph

import (
	"math"
	"math/rand"
)

// This file holds the deterministic graph generators that stand in for the
// paper's six evaluation datasets (Table 2). Each generator matches the
// degree structure that drives the paper's results (Figures 5-10): skew,
// minimum degree, and locality — not the exact topology of the originals,
// which are not redistributable at full size anyway.

// RMAT generates a Kronecker-style power-law graph with exactly n vertices
// and approximately avgDeg * n arcs, using the classic R-MAT recursive
// quadrant probabilities over the enclosing power-of-two grid with
// rejection sampling for endpoints >= n (which preserves the skew shape).
// GAP-kron (GK) uses the Graph500 parameters a=0.57, b=c=0.19.
func RMAT(name string, n int, avgDeg int, a, b, c float64, undirected bool, seed int64) *CSR {
	scale := ceilLog2(n)
	m := n * avgDeg
	if undirected {
		m /= 2 // symmetrization doubles arc count
	}
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		src, dst := quadrants(rng, scale, a, a+b, a+b+c)
		if src >= n || dst >= n {
			continue
		}
		edges = append(edges, Edge{uint32(src), uint32(dst)})
	}
	return FromEdges(name, n, edges, !undirected)
}

// quadrants draws one R-MAT cell of the 2^scale grid, one rng.Float64()
// per bit from the most significant down. t1 <= t2 <= t3 are the
// cumulative quadrant probabilities: a draw below t1 picks top-left, below
// t2 top-right (dst bit), below t3 bottom-left (src bit), else
// bottom-right (both). The bits come from comparisons, not a switch,
// because random draws make every branch on them a coin flip.
func quadrants(rng *rand.Rand, scale int, t1, t2, t3 float64) (src, dst int) {
	for i := 0; i < scale; i++ {
		r := rng.Float64()
		s := b2i(r >= t2)
		src = src<<1 | s
		dst = dst<<1 | b2i(r >= t1)&^s | b2i(r >= t3)
	}
	return src, dst
}

// b2i converts a bool to 0 or 1; the compiler lowers it to a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ceilLog2 returns the smallest k with 2^k >= n.
func ceilLog2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}

// Urand generates a uniform-random (Erdős–Rényi style) graph like GAP-urand
// (GU): endpoints drawn uniformly, giving a tight Poisson degree band
// (16-48 at mean 32, which is exactly the paper's description of GU in
// Figure 6).
func Urand(name string, n int, avgDeg int, seed int64) *CSR {
	m := n * avgDeg / 2 // undirected: each edge contributes 2 arcs
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, Edge{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
	}
	return FromEdges(name, n, edges, false)
}

// Dense generates a graph whose edges all attach to high-degree vertices,
// like MOLIERE_2016 (ML): per-vertex target degree minDeg + Exp(mean
// avgDeg-minDeg), realized with a configuration model. The paper's Figure 6
// shows ML with essentially zero edges on vertices of degree < 96 and an
// average degree of 222.
func Dense(name string, n int, avgDeg, minDeg int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	// Target (undirected) degrees; the config model consumes two stubs per
	// edge, so total stubs must be even.
	deg := make([]int, n)
	totalStubs := 0
	mean := float64(avgDeg - minDeg)
	for v := range deg {
		d := minDeg + int(rng.ExpFloat64()*mean)
		deg[v] = d
		totalStubs += d
	}
	if totalStubs%2 == 1 {
		deg[0]++
		totalStubs++
	}
	stubs := make([]uint32, 0, totalStubs)
	for v, d := range deg {
		for i := 0; i < d; i++ {
			stubs = append(stubs, uint32(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	edges := make([]Edge, 0, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		edges = append(edges, Edge{stubs[i], stubs[i+1]})
	}
	return FromEdges(name, n, edges, false)
}

// Social generates a social-network-like graph (Friendster analog, FS)
// with exactly n vertices: power-law degree skew milder than R-MAT's
// default, with some community locality from a bounded-window bias.
func Social(name string, n int, avgDeg int, seed int64) *CSR {
	scale := ceilLog2(n)
	m := n * avgDeg / 2
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	window := n / 64
	if window < 4 {
		window = 4
	}
	for len(edges) < m {
		// Milder R-MAT quadrants soften the hub skew relative to GK.
		src, dst := quadrants(rng, scale, 0.45, 0.45+0.22, 0.45+0.44)
		if src >= n || dst >= n {
			continue
		}
		if rng.Float64() < 0.3 {
			// Community edge: rewire dst near src.
			dst = src + rng.Intn(2*window) - window
			if dst < 0 {
				dst += n
			}
			if dst >= n {
				dst -= n
			}
		}
		edges = append(edges, Edge{uint32(src), uint32(dst)})
	}
	return FromEdges(name, n, edges, false)
}

// Web generates a directed web-crawl-like graph (sk-2005 / uk-2007-05
// analogs): URL-ordered vertices give strong ID locality, out-degrees are
// heavy-tailed (lognormal), and most links land near their source with a
// minority of long-range links.
func Web(name string, n int, avgDeg int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, n*avgDeg)
	// Lognormal out-degree with the given mean: exp(mu + sigma^2/2) = avgDeg.
	sigma := 1.1
	mu := math.Log(float64(avgDeg)) - sigma*sigma/2
	window := n / 128
	if window < 8 {
		window = 8
	}
	for v := 0; v < n; v++ {
		d := int(math.Exp(rng.NormFloat64()*sigma + mu))
		if d < 1 {
			d = 1
		}
		if d > n/2 {
			d = n / 2
		}
		for i := 0; i < d; i++ {
			var dst int
			if rng.Float64() < 0.85 {
				// Local link within the host/window.
				dst = v + rng.Intn(2*window) - window
				if dst < 0 {
					dst += n
				}
				if dst >= n {
					dst -= n
				}
			} else {
				// Long-range link, biased toward early (popular) vertices.
				dst = int(float64(n) * math.Pow(rng.Float64(), 2.0))
				if dst >= n {
					dst = n - 1
				}
			}
			edges = append(edges, Edge{uint32(v), uint32(dst)})
		}
	}
	return FromEdges(name, n, edges, true)
}
