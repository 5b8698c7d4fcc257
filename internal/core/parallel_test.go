package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// This file is the serial-vs-parallel equivalence suite for the gpu
// package's parallel launch engine: every simulated quantity — functional
// values, iteration counts, elapsed simulated time, and the full
// per-run KernelStats delta — must be bit-for-bit identical whether a
// kernel's warps run on one worker goroutine or eight. Workers=8 is forced
// explicitly (GOMAXPROCS may be 1 on small CI hosts, which would silently
// test nothing).

// workerDevice returns an uncapped device on the calibrated Gen3 link with
// the given per-launch worker count.
func workerDevice(workers int) *gpu.Device {
	return gpu.NewDevice(gpu.Config{
		Name:    fmt.Sprintf("test-v100-w%d", workers),
		Workers: workers,
		Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
	})
}

// equivGraphs builds two of the paper's Table 2 dataset analogs, small
// enough to sweep the full app x transport x variant matrix quickly.
func equivGraphs(t *testing.T) []*graph.CSR {
	t.Helper()
	gs := make([]*graph.CSR, 0, 2)
	for _, sym := range []string{"GK", "GU"} {
		spec, err := graph.BySym(sym)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, spec.Build(0.02, 42))
	}
	return gs
}

// assertResultsEqual fails unless the two runs match in every field the
// simulator reports.
func assertResultsEqual(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if len(serial.Values) != len(parallel.Values) {
		t.Fatalf("value lengths differ: %d vs %d", len(serial.Values), len(parallel.Values))
	}
	for v := range serial.Values {
		if serial.Values[v] != parallel.Values[v] {
			t.Fatalf("values[%d] differ: serial %d, parallel %d", v, serial.Values[v], parallel.Values[v])
		}
	}
	if serial.Iterations != parallel.Iterations {
		t.Errorf("iterations differ: serial %d, parallel %d", serial.Iterations, parallel.Iterations)
	}
	if serial.Elapsed != parallel.Elapsed {
		t.Errorf("elapsed differs: serial %v, parallel %v", serial.Elapsed, parallel.Elapsed)
	}
	if serial.Stats != parallel.Stats {
		t.Errorf("kernel stats differ:\nserial:   %+v\nparallel: %+v", serial.Stats, parallel.Stats)
	}
}

// TestSerialParallelEquivalence sweeps all three applications over both
// transports and all three kernel variants on two Table 2 datasets,
// asserting Workers=1 and Workers=8 agree exactly.
func TestSerialParallelEquivalence(t *testing.T) {
	graphs := equivGraphs(t)
	for _, g := range graphs {
		src := graph.PickSources(g, 1, 71)[0]
		for _, transport := range []Transport{ZeroCopy, UVM} {
			for _, variant := range allVariants {
				for _, app := range []string{"bfs", "sssp", "cc"} {
					name := fmt.Sprintf("%s/%s/%s/%s", g.Name, transport, variant, strings.ToUpper(app))
					t.Run(name, func(t *testing.T) {
						run := func(workers int) *Result {
							dev := workerDevice(workers)
							dg, err := Upload(dev, g, transport, 8)
							if err != nil {
								t.Fatal(err)
							}
							res, err := RunAlgo(context.Background(), dev, dg, app, src, variant)
							if err != nil {
								t.Fatal(err)
							}
							if err := res.Validate(g); err != nil {
								t.Fatal(err)
							}
							return res
						}
						assertResultsEqual(t, run(1), run(8))
					})
				}
			}
		}
	}
}

// TestSerialParallelEquivalenceExtensions covers the traversal extensions
// beyond the paper's core matrix — sub-warp workers, compressed edges,
// edge-centric streaming, direction-optimized BFS, and the toy strided
// kernel — so every parallel-eligible kernel body in the repository gets
// serial-vs-parallel (and, under -race, data-race) coverage.
func TestSerialParallelEquivalenceExtensions(t *testing.T) {
	g := equivGraphs(t)[0]
	src := graph.PickSources(g, 1, 71)[0]
	impls := []struct {
		name string
		run  func(dev *gpu.Device) (*Result, error)
	}{
		{"worker8", func(dev *gpu.Device) (*Result, error) {
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return BFSWithWorker(context.Background(), dev, dg, src, 8, true)
		}},
		{"compressed", func(dev *gpu.Device) (*Result, error) {
			cdg, err := UploadCompressed(dev, g)
			if err != nil {
				return nil, err
			}
			return BFSCompressed(context.Background(), dev, cdg, src)
		}},
		{"edge-centric", func(dev *gpu.Device) (*Result, error) {
			ec, err := UploadEdgeCentric(dev, g)
			if err != nil {
				return nil, err
			}
			return BFSEdgeCentric(context.Background(), dev, ec, src)
		}},
		{"direction-optimized", func(dev *gpu.Device) (*Result, error) {
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				return nil, err
			}
			return BFSDirectionOptimized(context.Background(), dev, dg, src, DefaultPushPullConfig())
		}},
		{"toy-strided", func(dev *gpu.Device) (*Result, error) {
			tr, err := ToyTraverse(dev, 1<<14, ToyStrided, ZeroCopy)
			if err != nil {
				return nil, err
			}
			return &Result{App: "toy", Elapsed: tr.Elapsed, Stats: tr.Stats}, nil
		}},
	}
	want := graph.RefBFS(g, src)
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			run := func(workers int) *Result {
				res, err := im.run(workerDevice(workers))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial, parallel := run(1), run(8)
			if im.name != "toy-strided" {
				for v := range want {
					if serial.Values[v] != want[v] {
						t.Fatalf("serial run wrong: level[%d] = %d, want %d", v, serial.Values[v], want[v])
					}
				}
			}
			assertResultsEqual(t, serial, parallel)
		})
	}
}
