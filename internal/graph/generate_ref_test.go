package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refQuadrants is the reference R-MAT draw: the per-bit switch RMAT and
// Social used before quadrants replaced it, over the same cumulative
// thresholds.
func refQuadrants(rng *rand.Rand, scale int, t1, t2, t3 float64) (src, dst int) {
	for bit := scale - 1; bit >= 0; bit-- {
		r := rng.Float64()
		switch {
		case r < t1:
			// top-left: no bits set
		case r < t2:
			dst |= 1 << uint(bit)
		case r < t3:
			src |= 1 << uint(bit)
		default:
			src |= 1 << uint(bit)
			dst |= 1 << uint(bit)
		}
	}
	return src, dst
}

// refFromEdges is the reference CSR builder: it appends a reversed copy of
// the arcs for undirected graphs, counting-sorts by source, then sorts each
// list with sort.Slice and deduplicates in place.
func refFromEdges(name string, n int, edges []Edge, directed bool) *CSR {
	if !directed {
		rev := make([]Edge, 0, len(edges))
		for _, e := range edges {
			rev = append(rev, Edge{e.Dst, e.Src})
		}
		edges = append(edges, rev...)
	}
	counts := make([]int64, n+1)
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		counts[e.Src+1]++
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	dst := make([]uint32, counts[n])
	cursor := make([]int64, n)
	for _, e := range edges {
		if e.Src == e.Dst {
			continue
		}
		dst[counts[e.Src]+cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	offsets := make([]int64, n+1)
	w := int64(0)
	for v := 0; v < n; v++ {
		offsets[v] = w
		lo, hi := counts[v], counts[v]+cursor[v]
		adj := dst[lo:hi]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		for i := range adj {
			if i > 0 && adj[i] == adj[i-1] {
				continue
			}
			dst[w] = adj[i]
			w++
		}
	}
	offsets[n] = w
	return &CSR{Name: name, Directed: directed, Offsets: offsets, Dst: dst[:w:w]}
}

// quadrantThresholds are the cumulative thresholds of both callers,
// computed the way each caller computes them: RMAT sums its parameters at
// run time, Social passes constant expressions.
func quadrantThresholds() map[string][3]float64 {
	a, b, c := 0.57, 0.19, 0.19
	return map[string][3]float64{
		"GK": {a, a + b, a + b + c},
		"FS": {0.45, 0.45 + 0.22, 0.45 + 0.44},
	}
}

// TestQuadrantsReference requires the comparison-built quadrant bits to
// match the switch on the same seeded stream, consuming it draw for draw.
func TestQuadrantsReference(t *testing.T) {
	for name, th := range quadrantThresholds() {
		for _, scale := range []int{0, 1, 7, 17} {
			got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			for i := 0; i < 5000; i++ {
				gs, gd := quadrants(got, scale, th[0], th[1], th[2])
				ws, wd := refQuadrants(want, scale, th[0], th[1], th[2])
				if gs != ws || gd != wd {
					t.Fatalf("%s scale %d draw %d: (%d,%d), reference (%d,%d)", name, scale, i, gs, gd, ws, wd)
				}
			}
			if got.Int63() != want.Int63() {
				t.Fatalf("%s scale %d: streams diverged", name, scale)
			}
		}
	}
}

// seqSource replays fixed Int63 values, so a test can choose the exact
// Float64 a rand.Rand returns: Float64 is Int63 / 2^63.
type seqSource []int64

func (s *seqSource) Int63() int64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

func (s *seqSource) Seed(int64) {}

// TestQuadrantsThresholdDraws feeds draws on and beside each threshold:
// the largest multiple of 2^-53 (Float64's grid) not above it, and its two
// neighbours. A threshold on the grid is drawn exactly.
func TestQuadrantsThresholdDraws(t *testing.T) {
	for name, th := range quadrantThresholds() {
		for _, thr := range th {
			k := int64(thr * (1 << 53)) // exact scaling, then floor
			for _, kk := range []int64{k - 1, k, k + 1} {
				r := float64(kk) / (1 << 53)
				draw := func() *rand.Rand { return rand.New(&seqSource{kk << 10}) }
				gs, gd := quadrants(draw(), 1, th[0], th[1], th[2])
				ws, wd := refQuadrants(draw(), 1, th[0], th[1], th[2])
				if gs != ws || gd != wd {
					t.Errorf("%s draw %v (threshold %v): (%d,%d), reference (%d,%d)", name, r, thr, gs, gd, ws, wd)
				}
			}
		}
	}
	// GK's thresholds sit on the grid, so the draw equal to each is covered
	// above; pin which quadrant it lands in.
	th := quadrantThresholds()["GK"]
	for i, want := range [][2]int{{0, 1}, {1, 0}, {1, 1}} {
		if float64(int64(th[i]*(1<<53)))/(1<<53) != th[i] {
			t.Fatalf("GK threshold %v is off Float64's grid", th[i])
		}
		kk := int64(th[i]*(1<<53)) << 10
		s, d := quadrants(rand.New(&seqSource{kk}), 1, th[0], th[1], th[2])
		if s != want[0] || d != want[1] {
			t.Errorf("draw at t%d = %v: (%d,%d), want (%d,%d)", i+1, th[i], s, d, want[0], want[1])
		}
	}
}

// FuzzFromEdgesReference requires FromEdges to build exactly the CSR the
// reference builder does, for any arcs over n vertices, self-loops and
// duplicates included.
func FuzzFromEdgesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(3), false)
	f.Add([]byte{5, 5, 5, 5, 1, 2, 1, 2, 2, 1}, uint8(8), true)
	f.Add([]byte{0, 1, 1, 0, 0, 1}, uint8(2), false)
	f.Add([]byte{}, uint8(0), true)
	f.Fuzz(func(t *testing.T, raw []byte, nb uint8, directed bool) {
		n := int(nb)%64 + 1
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{uint32(raw[i]) % uint32(n), uint32(raw[i+1]) % uint32(n)})
		}
		want := refFromEdges("fz", n, append([]Edge(nil), edges...), directed)
		got := FromEdges("fz", n, edges, directed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d directed=%v edges=%v:\n got offsets %v dst %v\nwant offsets %v dst %v",
				n, directed, edges, got.Offsets, got.Dst, want.Offsets, want.Dst)
		}
	})
}
