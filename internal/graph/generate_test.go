package graph

import (
	"testing"
)

func TestRMATShape(t *testing.T) {
	g := RMAT("gk", 4096, 16, 0.57, 0.19, 0.19, true, 1)
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if g.NumVertices() != 4096 {
		t.Errorf("|V| = %d, want 4096", g.NumVertices())
	}
	st := AnalyzeDegrees(g)
	// R-MAT must be heavy-tailed: max degree far above the mean.
	if float64(st.Max) < 5*st.Mean {
		t.Errorf("R-MAT not skewed: max=%d mean=%.1f", st.Max, st.Mean)
	}
	// Roughly the requested average degree (dedup losses allowed).
	if st.Mean < 6 || st.Mean > 16.5 {
		t.Errorf("R-MAT mean degree %.1f far from target", st.Mean)
	}
	if g.Directed {
		t.Errorf("undirected R-MAT should not be directed")
	}
}

func TestRMATDeterministic(t *testing.T) {
	a := RMAT("x", 1024, 8, 0.57, 0.19, 0.19, true, 42)
	b := RMAT("x", 1024, 8, 0.57, 0.19, 0.19, true, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for i := range a.Dst {
		if a.Dst[i] != b.Dst[i] {
			t.Fatalf("graphs differ at arc %d", i)
		}
	}
	c := RMAT("x", 1024, 8, 0.57, 0.19, 0.19, true, 43)
	same := a.NumEdges() == c.NumEdges()
	if same {
		for i := range a.Dst {
			if a.Dst[i] != c.Dst[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("different seeds produced identical graphs")
	}
}

func TestUrandDegreeBand(t *testing.T) {
	g := Urand("gu", 8192, 32, 2)
	st := AnalyzeDegrees(g)
	// GAP-urand's signature (paper Fig 6): essentially all edges attach to
	// vertices in a tight Poisson band around the mean, none far outside.
	cdf := DegreeCDF(g)
	if frac := cdf.At(12); frac > 0.01 {
		t.Errorf("urand: %.3f of edges on degree <=12 vertices, want ~0", frac)
	}
	if frac := cdf.At(56); frac < 0.99 {
		t.Errorf("urand: only %.3f of edges on degree <=56 vertices, want ~1", frac)
	}
	if st.Mean < 28 || st.Mean > 34 {
		t.Errorf("urand mean degree = %.1f, want ~32", st.Mean)
	}
}

func TestDenseMinimumDegree(t *testing.T) {
	g := Dense("ml", 2048, 221, 96, 3)
	cdf := DegreeCDF(g)
	// ML's signature: nearly no edges on vertices with degree < 96.
	if frac := cdf.At(90); frac > 0.02 {
		t.Errorf("dense: %.3f of edges on degree <=90 vertices, want ~0", frac)
	}
	st := AnalyzeDegrees(g)
	if st.Mean < 150 || st.Mean > 300 {
		t.Errorf("dense mean degree = %.1f, want ~221", st.Mean)
	}
}

func TestSocialShape(t *testing.T) {
	g := Social("fs", 4096, 28, 4)
	if err := g.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	st := AnalyzeDegrees(g)
	if float64(st.Max) < 3*st.Mean {
		t.Errorf("social graph should be skewed: max=%d mean=%.1f", st.Max, st.Mean)
	}
	if g.Directed {
		t.Errorf("social graph should be undirected")
	}
}

func TestWebLocality(t *testing.T) {
	g := Web("sk", 8192, 38, 5)
	if !g.Directed {
		t.Fatalf("web graph should be directed")
	}
	// Measure ID locality: fraction of arcs landing within n/64 of the
	// source. The copying-model construction should make this dominant.
	n := g.NumVertices()
	window := n / 64
	local := 0
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			d := int(u) - v
			if d < 0 {
				d = -d
			}
			if d <= window || n-d <= window {
				local++
			}
		}
	}
	frac := float64(local) / float64(g.NumEdges())
	if frac < 0.6 {
		t.Errorf("web graph locality = %.2f, want > 0.6", frac)
	}
	st := AnalyzeDegrees(g)
	if st.Mean < 20 || st.Mean > 60 {
		t.Errorf("web mean degree = %.1f, want ~38", st.Mean)
	}
}

func TestAllSpecsBuildSmall(t *testing.T) {
	for _, spec := range AllSpecs() {
		spec := spec
		t.Run(spec.Sym, func(t *testing.T) {
			g := spec.Build(0.02, 9)
			if err := g.Validate(); err != nil {
				t.Fatalf("%s invalid: %v", spec.Sym, err)
			}
			if g.Name != spec.Sym {
				t.Errorf("name = %q, want %q", g.Name, spec.Sym)
			}
			if g.Weights == nil {
				t.Errorf("weights not initialized")
			}
			if g.NumEdges() == 0 {
				t.Errorf("no edges generated")
			}
			for _, w := range g.Weights {
				if w < 8 || w > 72 {
					t.Fatalf("weight %d outside [8,72]", w)
				}
			}
		})
	}
}

func TestSpecScaleClamping(t *testing.T) {
	spec, err := BySym("GU")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.00001, 1) // would be <1 vertex; clamped to 64
	if g.NumVertices() < 64 {
		t.Errorf("|V| = %d, want >= 64", g.NumVertices())
	}
}

func TestBySym(t *testing.T) {
	for _, sym := range []string{"GK", "GU", "FS", "ML", "SK", "UK5"} {
		if _, err := BySym(sym); err != nil {
			t.Errorf("BySym(%s): %v", sym, err)
		}
	}
	if _, err := BySym("nope"); err == nil {
		t.Errorf("unknown symbol accepted")
	}
}

// TestUndirectedSpecs: the paper runs CC on the undirected graphs only
// (§5.4), so exactly SK and UK5 build directed graphs.
func TestUndirectedSpecs(t *testing.T) {
	for _, s := range AllSpecs() {
		if want, g := s.Sym == "SK" || s.Sym == "UK5", s.Build(0.001, 1); g.Directed != want {
			t.Errorf("%s: Directed = %v, want %v", s.Sym, g.Directed, want)
		}
	}
}

func TestDegreeCDFOnFigure1(t *testing.T) {
	g := diamond()
	cdf := DegreeCDF(g)
	// Degrees: v0=2, v1=4, v2=3, v3=2, v4=3; 14 arcs total.
	// Edges on degree<=2 vertices: 4; <=3: 10; <=4: 14.
	if got := cdf.At(2); got != 4.0/14.0 {
		t.Errorf("CDF(2) = %v, want 4/14", got)
	}
	if got := cdf.At(3); got != 10.0/14.0 {
		t.Errorf("CDF(3) = %v, want 10/14", got)
	}
	if got := cdf.At(4); got != 1.0 {
		t.Errorf("CDF(4) = %v, want 1", got)
	}
}

func TestAnalyzeDegrees(t *testing.T) {
	g := diamond()
	st := AnalyzeDegrees(g)
	if st.Min != 2 || st.Max != 4 {
		t.Errorf("min/max = %d/%d, want 2/4", st.Min, st.Max)
	}
	if st.Isolated != 0 {
		t.Errorf("isolated = %d, want 0", st.Isolated)
	}
	// Graph with an isolated vertex.
	g2 := FromEdges("iso", 3, []Edge{{0, 1}}, false)
	st2 := AnalyzeDegrees(g2)
	if st2.Isolated != 1 || st2.Min != 0 {
		t.Errorf("isolated vertex not detected: %+v", st2)
	}
	empty := &CSR{Offsets: []int64{0}}
	ste := AnalyzeDegrees(empty)
	if ste.Min != 0 || ste.Max != 0 {
		t.Errorf("empty graph stats wrong: %+v", ste)
	}
}

func TestTable2Row(t *testing.T) {
	g := diamond()
	g.InitWeights(1, 8, 72)
	row := Table2Row(g)
	if row.Vertices != 5 || row.Edges != 14 {
		t.Errorf("row = %+v", row)
	}
	if row.EdgeBytes != 14*8 || row.WeightBytes != 14*4 {
		t.Errorf("byte sizes wrong: %+v", row)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	build := func(seed int64) []*CSR {
		return []*CSR{
			Urand("gu", 700, 12, seed),
			Dense("ml", 150, 48, 16, seed),
			Social("fs", 512, 12, seed),
			Web("sk", 700, 14, seed),
		}
	}
	a, b := build(7), build(7)
	for i := range a {
		if a[i].NumEdges() != b[i].NumEdges() {
			t.Fatalf("%s: edge counts differ across identical seeds", a[i].Name)
		}
		for j := range a[i].Dst {
			if a[i].Dst[j] != b[i].Dst[j] {
				t.Fatalf("%s: arc %d differs across identical seeds", a[i].Name, j)
			}
		}
	}
	c := build(8)
	for i := range a {
		same := a[i].NumEdges() == c[i].NumEdges()
		if same {
			for j := range a[i].Dst {
				if a[i].Dst[j] != c[i].Dst[j] {
					same = false
					break
				}
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical graphs", a[i].Name)
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRMATExactVertexCount(t *testing.T) {
	// Non-power-of-two vertex counts must be honored exactly (this is the
	// property that keeps dataset-to-GPU-memory ratios faithful; see the
	// log2Floor bug note in DESIGN.md's calibration history).
	for _, n := range []int{100, 1000, 1337, 5000} {
		g := RMAT("x", n, 8, 0.57, 0.19, 0.19, true, 1)
		if g.NumVertices() != n {
			t.Errorf("|V| = %d, want %d", g.NumVertices(), n)
		}
		s := Social("y", n, 8, 1)
		if s.NumVertices() != n {
			t.Errorf("social |V| = %d, want %d", s.NumVertices(), n)
		}
	}
}
