package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
)

// TestAllBFSImplementationsAgree is the repository's flagship consistency
// check: every BFS implementation — the three paper variants over both
// transports, the sub-warp workers, and the compressed, edge-centric and
// direction-optimized extensions — must produce byte-identical level arrays
// on the same graph and source. Between them these paths exercise every transport,
// kernel discipline, and coalescing pattern in the simulator.
func TestAllBFSImplementationsAgree(t *testing.T) {
	t.Parallel()
	graphs := []*graph.CSR{
		graph.RMAT("gk", 700, 10, 0.57, 0.19, 0.19, true, 3),
		graph.Urand("gu", 800, 12, 4),
		graph.Dense("ml", 150, 40, 16, 5),
	}
	type impl struct {
		name string
		run  func(g *graph.CSR, src int) ([]uint32, error)
	}
	zc := func(v Variant) func(*graph.CSR, int) ([]uint32, error) {
		return func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			res, err := BFS(context.Background(), dev, dg, src, v)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}
	}
	impls := []impl{
		{"naive", zc(Naive)},
		{"merged", zc(Merged)},
		{"merged+aligned", zc(MergedAligned)},
		{"uvm", func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, UVM, 8)
			if err != nil {
				return nil, err
			}
			res, err := BFS(context.Background(), dev, dg, src, Merged)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
		{"4-byte-edges", func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 4)
			if err != nil {
				return nil, err
			}
			res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
		{"worker8", func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			res, err := BFSWithWorker(context.Background(), dev, dg, src, 8, true)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
		{"worker16-unaligned", func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			res, err := BFSWithWorker(context.Background(), dev, dg, src, 16, false)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
		{"compressed", func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			cdg, err := UploadCompressed(dev, g)
			if err != nil {
				return nil, err
			}
			res, err := BFSCompressed(context.Background(), dev, cdg, src)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
		{"edge-centric", func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			ec, err := UploadEdgeCentric(dev, g)
			if err != nil {
				return nil, err
			}
			res, err := BFSEdgeCentric(context.Background(), dev, ec, src)
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
		{"direction-optimized", func(g *graph.CSR, src int) ([]uint32, error) {
			dev := testDevice()
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			res, err := BFSDirectionOptimized(context.Background(), dev, dg, src, DefaultPushPullConfig())
			if err != nil {
				return nil, err
			}
			return res.Values, nil
		}},
	}

	for _, g := range graphs {
		src := graph.PickSources(g, 1, 71)[0]
		want := graph.RefBFS(g, src)
		for _, im := range impls {
			t.Run(fmt.Sprintf("%s/%s", g.Name, im.name), func(t *testing.T) {
				got, err := im.run(g, src)
				if err != nil {
					t.Fatalf("%s: %v", im.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: length %d, want %d", im.name, len(got), len(want))
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s: level[%d] = %d, want %d", im.name, v, got[v], want[v])
					}
				}
			})
		}
	}
}
