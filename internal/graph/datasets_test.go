package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// csrDigest is a SHA-256 over a CSR's Offsets, Dst and Weights, each
// little-endian, in that order.
func csrDigest(g *CSR) string {
	h := sha256.New()
	for _, s := range []any{g.Offsets, g.Dst, g.Weights} {
		binary.Write(h, binary.LittleEndian, s) // hash.Hash writes never fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDatasetsPinned pins every Table 2 generator byte for byte: any
// change to a generator's random stream, its quadrant arithmetic or
// FromEdges' ordering and deduplication moves a digest. Scale 1 covers GK
// and SK, the two graphs perfbench builds.
func TestDatasetsPinned(t *testing.T) {
	cases := []struct {
		sym    string
		scale  float64
		digest string
	}{
		{"GK", 0.05, "3c0ef9f189d06de9efdafab2f22798bf4aa931330d94e53818cdc1c5463cc066"},
		{"GU", 0.05, "f02f44a0ec6c6f4011a66fa14e844369d4b66d48aa557d02b73ea211a2ce61bb"},
		{"FS", 0.05, "ff783632de46cc364cb13142fca0c5105ec410310940017d5b80625d6d5593bb"},
		{"ML", 0.05, "9255c20108e117971dff0aaeb009a1fef88db6517074836f589cc80553b58626"},
		{"SK", 0.05, "a5ccd717b1f971ef75e39f6db1e715d1db89fb2bee07ee670b7ffe004f801590"},
		{"UK5", 0.05, "7c9669577bee8c8de8628cc9202c8c914e593300bb514915e97fb5330cb59694"},
		{"GK", 1, "3c1a6ff093d9dd87bb31c93271dae36ded7d1d9291562ec796b990c70119c132"},
		{"SK", 1, "038de45211b4e97274805f92a328baaba44f68fe840ade28ee006fc392669248"},
	}
	for _, c := range cases {
		if c.scale >= 1 && testing.Short() {
			continue
		}
		spec, err := BySym(c.sym)
		if err != nil {
			t.Fatal(err)
		}
		if got := csrDigest(spec.Build(c.scale, 42)); got != c.digest {
			t.Errorf("%s at scale %g: digest %s, pinned %s", c.sym, c.scale, got, c.digest)
		}
	}
}

// BenchmarkBuildDataset times Spec.Build for each Table 2 dataset at scale
// 1 (generation, FromEdges and weights) and reports arcs built per second.
func BenchmarkBuildDataset(b *testing.B) {
	for _, spec := range AllSpecs() {
		b.Run(spec.Sym, func(b *testing.B) {
			var arcs int64
			for i := 0; i < b.N; i++ {
				arcs += spec.Build(1, 42).NumEdges()
			}
			b.ReportMetric(float64(arcs)/b.Elapsed().Seconds(), "arcs/s")
		})
	}
}
