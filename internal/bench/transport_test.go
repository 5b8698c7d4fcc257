package bench

import (
	"testing"

	emogi "repro"
)

// TestTransportComparison pins the transport claims at the probe scale.
// With the Naive kernel the transport table runs (the headline BENCH_8
// claim), adaptive beats BOTH static transports cold on the skewed GAP-kron
// analog and never loses to zero-copy on the uniform-random analog. With
// merged+aligned, the variant the benchmark's adaptive-paging workload runs,
// zero-copy gathers are cheap enough that static zero-copy stays ahead of
// adaptive (a known gap, see ROADMAP), so the pinned claim there is that
// adaptive beats static UVM on both graphs.
func TestTransportComparison(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(Config{Scale: 0.05, Seed: 42, Sources: 1})
	for _, v := range []emogi.Variant{emogi.Naive, emogi.MergedAligned} {
		cells, err := RunTransportComparison(ds, []string{"GK", "GU"}, []string{"bfs", "sssp"}, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(cells) != 4 {
			t.Fatalf("%v: cells = %d, want 4", v, len(cells))
		}
		for i := range cells {
			c := &cells[i]
			zc, uvm, ad := c.Elapsed["static-zc"], c.Elapsed["static-uvm"], c.Elapsed["adaptive"]
			if zc <= 0 || uvm <= 0 || ad <= 0 {
				t.Fatalf("%v %s/%s: non-positive elapsed (zc=%v uvm=%v adaptive=%v)", v, c.Graph, c.Algo, zc, uvm, ad)
			}
			t.Logf("%v %s %-5s zc=%v uvm=%v adaptive=%v", v, c.Graph, c.Algo, zc, uvm, ad)
			switch {
			case v == emogi.MergedAligned:
				if ad >= uvm {
					t.Errorf("%v %s/%s: adaptive %v does not beat static UVM %v", v, c.Graph, c.Algo, ad, uvm)
				}
			case c.Graph == "GK": // skewed: adaptive must beat both statics outright
				if ad >= zc || ad >= uvm {
					t.Errorf("%v GK/%s: adaptive %v does not beat both statics (zc=%v uvm=%v)", v, c.Algo, ad, zc, uvm)
				}
			case c.Graph == "GU": // uniform: adaptive must stay within noise of zero-copy
				if float64(ad) > float64(zc)*1.02 {
					t.Errorf("%v GU/%s: adaptive %v slower than zero-copy %v beyond 2%% noise", v, c.Algo, ad, zc)
				}
			}
		}
	}
}
