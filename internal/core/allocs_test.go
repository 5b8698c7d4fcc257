package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
	"repro/internal/race"
)

// This file pins the engine's zero-alloc round contract: once a run's
// first round has warmed the per-worker scratch, a steady-state round
// performs NO heap allocation — not in the round loop, not in the kernel
// bodies, not in the visitors, not in the coalescer or its reorder stage.
// The runs are measured back to back on one device, without a ResetStats
// between them: the device's run statistics are fixed-size, so nothing
// grows with the number of launches it has seen.
//
// The contract is asserted with a delta method built on
// testing.AllocsPerRun (the testing-package form of AllocsPerOp): two
// full runs on the same warmed device differ only in their round count,
// so their total allocation counts are equal exactly when the per-round
// allocation count is zero. This is robust against per-run constants
// (Result assembly, runState, prebuilt visitors) that a naive per-op
// threshold would have to guess at.
//
// The contract covers the serial engine (Workers=1): parallel launches
// spawn worker goroutines per launch by design, which Go runtime
// machinery charges allocations for outside the engine's control. Race
// builds skip the gates (see internal/race); the race-free CI job runs
// them.

// allocDevice returns a single-worker device, optionally with the
// coalescer's reorder stage enabled, so the contract covers both paths.
func allocDevice(reorderWindow int) *gpu.Device {
	return gpu.NewDevice(gpu.Config{
		Name:          "alloc-test",
		Tiers:         memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		Workers:       1,
		ReorderWindow: reorderWindow,
	})
}

// depthSources returns two sources whose BFS depths differ, so runs from
// them take different round counts.
func depthSources(t *testing.T, g *graph.CSR) (int, int) {
	t.Helper()
	depth := func(src int) uint32 {
		d := uint32(0)
		for _, l := range graph.RefBFS(g, src) {
			if l != graph.InfDist && l > d {
				d = l
			}
		}
		return d
	}
	cands := graph.PickSources(g, 16, 29)
	for _, s := range cands[1:] {
		if depth(s) != depth(cands[0]) {
			return cands[0], s
		}
	}
	t.Fatal("no source pair with differing BFS depth; pick a different graph seed")
	return 0, 0
}

// measureRunAllocs returns the average total allocations of run(src),
// after warming both sources so capacity growth is excluded. The forced GC
// keeps the process's first collection out of the measured window: that
// cycle starts the runtime's mark-worker goroutines, whose one-time
// allocations count in MemStats.Mallocs and would land on whichever run
// it happens to hit.
func measureRunAllocs(run func(src int), srcA, srcB int) (float64, float64) {
	run(srcA)
	run(srcB)
	runtime.GC()
	a := testing.AllocsPerRun(5, func() { run(srcA) })
	b := testing.AllocsPerRun(5, func() { run(srcB) })
	return a, b
}

// skipUnderRace skips an allocation gate in race builds: the race runtime
// allocates on its own schedule, so AllocsPerRun counts are not
// reproducible there.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
}

func assertEqualAllocs(t *testing.T, name string, a, b float64, itersA, itersB int) {
	t.Helper()
	if itersA == itersB {
		t.Fatalf("%s: both runs took %d rounds; the delta method needs differing round counts", name, itersA)
	}
	if a != b {
		t.Errorf("%s: steady-state rounds allocate: %d-round run averaged %.1f allocs, %d-round run %.1f — the per-round delta must be zero",
			name, itersA, a, itersB, b)
	}
}

// TestSteadyStateRoundAllocsEngine covers the single-source engine:
// FrontierMatch (BFS) and FrontierActive (SSSP) disciplines, and the BFS
// kernels with their own walks (edge-centric, compressed, 8-lane worker
// groups, direction-optimized push/pull), with the reorder stage off and
// on. CC has no source, so its two runs are on two graphs whose label
// propagation takes different round counts.
func TestSteadyStateRoundAllocsEngine(t *testing.T) {
	skipUnderRace(t)
	g := graph.Urand("alloc-u", 800, 8, 3)
	g.InitWeights(7, 8, 72)
	ctx := context.Background()
	for _, rw := range []int{0, 16} {
		dev := allocDevice(rw)
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		ec, err := UploadEdgeCentric(dev, g)
		if err != nil {
			t.Fatal(err)
		}
		cdg, err := UploadCompressed(dev, g)
		if err != nil {
			t.Fatal(err)
		}
		// A sparse graph's long paths take CC more rounds than g.
		sparse, err := Upload(dev, graph.Urand("alloc-sparse", 800, 2, 5), ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		ccGraph := map[int]*DeviceGraph{}
		srcA, srcB := depthSources(t, g)
		ccGraph[srcA], ccGraph[srcB] = dg, sparse
		for _, tc := range []struct {
			name string
			algo func(src int) (*Result, error)
		}{
			{"bfs", func(src int) (*Result, error) { return BFS(ctx, dev, dg, src, MergedAligned) }},
			{"sssp", func(src int) (*Result, error) { return SSSP(ctx, dev, dg, src, MergedAligned) }},
			{"bfs-edgecentric", func(src int) (*Result, error) { return BFSEdgeCentric(ctx, dev, ec, src) }},
			{"bfs-compressed", func(src int) (*Result, error) { return BFSCompressed(ctx, dev, cdg, src) }},
			{"bfs-worker8", func(src int) (*Result, error) { return BFSWithWorker(ctx, dev, dg, src, 8, true) }},
			{"bfs-pushpull", func(src int) (*Result, error) {
				return BFSDirectionOptimized(ctx, dev, dg, src, DefaultPushPullConfig())
			}},
			{"cc", func(src int) (*Result, error) { return CC(ctx, dev, ccGraph[src], MergedAligned) }},
		} {
			iters := map[int]int{}
			run := func(src int) {
				res, err := tc.algo(src)
				if err != nil {
					t.Fatalf("reorder=%d/%s: %v", rw, tc.name, err)
				}
				iters[src] = res.Iterations
			}
			a, b := measureRunAllocs(run, srcA, srcB)
			assertEqualAllocs(t, tc.name, a, b, iters[srcA], iters[srcB])
		}
	}
}

// TestSteadyStateRoundAllocsBatch covers the batched lane loop: the
// match (BFS) and active (SSSP) batched kernels with K=4 lanes.
func TestSteadyStateRoundAllocsBatch(t *testing.T) {
	skipUnderRace(t)
	g := graph.Urand("alloc-b", 800, 8, 3)
	g.InitWeights(7, 8, 72)
	for _, rw := range []int{0, 16} {
		dev := allocDevice(rw)
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		srcA, srcB := depthSources(t, g)
		for _, app := range []string{"bfs", "sssp"} {
			iters := map[int]int{}
			run := func(src int) {
				specs := []BatchSpec{{Src: src}, {Src: src}, {Src: src}, {Src: src}}
				out, err := RunBatchAlgo(context.Background(), dev, dg, app, specs, MergedAligned)
				if err != nil {
					t.Fatalf("reorder=%d/%s-batch: %v", rw, app, err)
				}
				for _, item := range out.Results {
					if item.Err != nil {
						t.Fatalf("reorder=%d/%s-batch lane: %v", rw, app, item.Err)
					}
					iters[src] = item.Res.Iterations
				}
			}
			a, b := measureRunAllocs(run, srcA, srcB)
			assertEqualAllocs(t, app+"-batch", a, b, iters[srcA], iters[srcB])
		}
	}
}
