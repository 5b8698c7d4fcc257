package graph

import "fmt"

// Spec describes one of the paper's six evaluation datasets (Table 2) and
// how to synthesize its scaled analog. Scale 1.0 is the repository's
// standard 1:1000 reduction of the paper graph: |V|, |E|, and the GPU
// memory capacity are all scaled by the same factor, preserving every
// capacity ratio the results depend on (e.g. "SK almost fits in GPU
// memory", §5.3.3).
type Spec struct {
	Sym        string // paper symbol: GK, GU, FS, ML, SK, UK5
	PaperGraph string // the original dataset's name

	// VerticesAt1 is |V| at scale 1.0 (the original's |V| / 1000).
	VerticesAt1 int

	// AvgDeg is the target arcs-per-vertex ratio of the original.
	AvgDeg int

	build func(n int, avgDeg int, seed int64) *CSR
}

// Build synthesizes the dataset at the given scale with the given seed,
// including 4-byte weights in [8, 72] as in §5.2. Scale is clamped below
// so tiny test graphs stay connected enough to traverse.
func (s Spec) Build(scale float64, seed int64) *CSR {
	n := int(float64(s.VerticesAt1) * scale)
	if n < 64 {
		n = 64
	}
	g := s.build(n, s.AvgDeg, seed)
	g.Name = s.Sym
	g.FullName = fmt.Sprintf("%s (1:%d scale analog)", s.PaperGraph, int(1000.0/scale))
	g.InitWeights(seed, 8, 72)
	if err := g.Validate(); err != nil {
		panic("graph: dataset build produced invalid CSR: " + err.Error())
	}
	return g
}

// AllSpecs returns the six dataset specs in the paper's Table 2 order.
func AllSpecs() []Spec {
	return []Spec{
		{
			Sym: "GK", PaperGraph: "GAP-kron",
			VerticesAt1: 134_217, AvgDeg: 31,
			build: func(n, avgDeg int, seed int64) *CSR {
				// Graph500 Kronecker parameters; heavy-tailed hubs.
				return RMAT("GK", n, avgDeg, 0.57, 0.19, 0.19, true, seed)
			},
		},
		{
			Sym: "GU", PaperGraph: "GAP-urand",
			VerticesAt1: 134_217, AvgDeg: 32,
			build: func(n, avgDeg int, seed int64) *CSR {
				return Urand("GU", n, avgDeg, seed)
			},
		},
		{
			Sym: "FS", PaperGraph: "Friendster",
			VerticesAt1: 65_608, AvgDeg: 55,
			build: func(n, avgDeg int, seed int64) *CSR {
				return Social("FS", n, avgDeg, seed)
			},
		},
		{
			Sym: "ML", PaperGraph: "MOLIERE_2016",
			VerticesAt1: 30_239, AvgDeg: 221,
			build: func(n, avgDeg int, seed int64) *CSR {
				return Dense("ML", n, avgDeg, 96, seed)
			},
		},
		{
			Sym: "SK", PaperGraph: "sk-2005",
			VerticesAt1: 50_636, AvgDeg: 38,
			build: func(n, avgDeg int, seed int64) *CSR {
				return Web("SK", n, avgDeg, seed)
			},
		},
		{
			Sym: "UK5", PaperGraph: "uk-2007-05",
			VerticesAt1: 105_896, AvgDeg: 35,
			build: func(n, avgDeg int, seed int64) *CSR {
				return Web("UK5", n, avgDeg, seed+1)
			},
		},
	}
}

// BySym returns the spec with the given symbol.
func BySym(sym string) (Spec, error) {
	for _, s := range AllSpecs() {
		if s.Sym == sym {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("graph: unknown dataset symbol %q", sym)
}
