package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// This file is the reorder stage's equivalence suite (DESIGN.md §17):
//
//   - ReorderWindow=0 is bit-for-bit the pre-reorder engine, pinned against
//     the golden records with the field set explicitly (the default-config
//     matrix is pinned by TestEngineGolden).
//   - With the stage ON, serial, parallel, and batched runs are
//     deterministic: identical values and identical counters for every
//     worker count, because the window is per-warp and drains at warp end.
//   - Off vs. on obeys request conservation: no request is lost or
//     duplicated, only merged, and every merge is attributed to
//     ReorderMerged exactly.
//
// FuzzReorderWindow fuzzes the same invariants over random graphs, window
// sizes (including sub-minimum values that clamp up), and algorithms.

// reorderDevice returns a test device with an explicit worker count and
// reorder window.
func reorderDevice(workers, window int) *gpu.Device {
	return gpu.NewDevice(gpu.Config{
		Name:          "reorder-test",
		Tiers:         memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		Workers:       workers,
		ReorderWindow: window,
	})
}

// effReorderCap mirrors Device.reorderCap: the configured window, clamped
// up to one full 128B line when positive.
func effReorderCap(window int) uint64 {
	if window > 0 && window < 4 {
		window = 4
	}
	return uint64(window)
}

// checkReorderConservation asserts the off-vs-on invariants between two
// runs of the same traversal: traversal output identical, requests
// conserved (every eliminated request attributed to ReorderMerged), payload
// only shrinking by whole deduplicated 32B sectors, and the window bound
// respected on every flush.
func checkReorderConservation(t *testing.T, name string, off, on *Result, window int) {
	t.Helper()
	if !reflect.DeepEqual(off.Values, on.Values) {
		t.Errorf("%s: traversal values differ with reorder window %d", name, window)
	}
	if off.Iterations != on.Iterations {
		t.Errorf("%s: iterations %d (off) vs %d (window %d)",
			name, off.Iterations, on.Iterations, window)
	}
	if off.Stats.ReorderMerged != 0 || off.Stats.ReorderFlushes != 0 || off.Stats.ReorderWindowSectors != 0 {
		t.Errorf("%s: reorder counters nonzero with the stage off: %+v", name, off.Stats)
	}
	o, n := &off.Stats, &on.Stats
	if o.PCIeRequests < n.PCIeRequests {
		t.Errorf("%s: reorder stage ADDED requests: %d off vs %d on", name, o.PCIeRequests, n.PCIeRequests)
	}
	// Conservation: the thrash re-fetch term is identical on both sides (its
	// inputs are counted at access time, before buffering), so the only
	// permitted request delta is the merge count.
	if o.ZCSectorReuses != n.ZCSectorReuses || o.ZCActiveLanes != n.ZCActiveLanes || o.ZCRefetches != n.ZCRefetches {
		t.Errorf("%s: thrash-model inputs moved with the reorder stage: off %d/%d/%d vs on %d/%d/%d",
			name, o.ZCSectorReuses, o.ZCActiveLanes, o.ZCRefetches,
			n.ZCSectorReuses, n.ZCActiveLanes, n.ZCRefetches)
	}
	if got, want := o.PCIeRequests-n.PCIeRequests, n.ReorderMerged; got != want {
		t.Errorf("%s: request conservation broken: off-on delta %d, ReorderMerged %d (requests lost or duplicated)",
			name, got, want)
	}
	if o.PCIePayloadBytes < n.PCIePayloadBytes {
		t.Errorf("%s: reorder stage inflated payload: %d off vs %d on",
			name, o.PCIePayloadBytes, n.PCIePayloadBytes)
	}
	if delta := o.PCIePayloadBytes - n.PCIePayloadBytes; delta%uint64(memsys.SectorBytes) != 0 {
		t.Errorf("%s: payload delta %dB is not whole 32B sectors", name, delta)
	}
	if cap := effReorderCap(window); n.ReorderWindowSectors > n.ReorderFlushes*cap {
		t.Errorf("%s: window bound violated: %d sectors over %d flushes exceeds cap %d",
			name, n.ReorderWindowSectors, n.ReorderFlushes, cap)
	}
	// GPU-local and UVM traffic never enters the window.
	if o.HBMBytes != n.HBMBytes || o.UVMMigrations != n.UVMMigrations {
		t.Errorf("%s: on-device/UVM traffic moved with the reorder stage", name)
	}
}

// TestReorderWindowZeroMatchesGolden pins the explicit-zero configuration
// against the golden records: setting ReorderWindow to 0 must be
// indistinguishable from never having the field at all.
func TestReorderWindowZeroMatchesGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]goldenRecord, len(want))
	for _, r := range want {
		byName[r.Name] = r
	}

	check := func(name string, res *Result) {
		t.Helper()
		exp, ok := byName[name]
		if !ok {
			t.Fatalf("%s: no golden record", name)
		}
		if got := recordOf(name, res); got != exp {
			t.Errorf("%s drifted with explicit ReorderWindow=0:\n got:  %s\n want: %s",
				name, mustJSON(got), mustJSON(exp))
		}
	}

	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.02, 42)
	src := graph.PickSources(g, 1, 71)[0]

	for _, tc := range []struct {
		name string
		run  func(dev *gpu.Device, dg *DeviceGraph) (*Result, error)
	}{
		{"GK/bfs", func(dev *gpu.Device, dg *DeviceGraph) (*Result, error) {
			return BFS(context.Background(), dev, dg, src, MergedAligned)
		}},
		{"GK/sssp", func(dev *gpu.Device, dg *DeviceGraph) (*Result, error) {
			return SSSP(context.Background(), dev, dg, src, MergedAligned)
		}},
		{"GK/bfs-naive", func(dev *gpu.Device, dg *DeviceGraph) (*Result, error) {
			return BFS(context.Background(), dev, dg, src, Naive)
		}},
	} {
		dev := reorderDevice(0, 0)
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tc.run(dev, dg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check(tc.name, res)
	}

	// Batched lanes on an explicit-zero device against the pinned batch
	// records.
	bsrcs := graph.PickSources(g, 4, 71)
	dev := reorderDevice(0, 0)
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]BatchSpec, len(bsrcs))
	for i, s := range bsrcs {
		specs[i] = BatchSpec{Src: s}
	}
	out, err := RunBatchAlgo(context.Background(), dev, dg, "bfs", specs, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Results {
		if item.Err != nil {
			t.Fatalf("lane %d: %v", i, item.Err)
		}
		check(fmt.Sprintf("GK/bfs-batch4.q%d", i), item.Res)
	}
}

// TestReorderDeterminism pins serial == parallel == batched with the stage
// ON: the window is per-warp state that drains at warp boundaries, so the
// launch partitioning must be invisible in every counter.
func TestReorderDeterminism(t *testing.T) {
	const window = 16
	gs := testGraphs()
	for _, g := range gs[:2] {
		src := graph.PickSources(g, 1, 43)[0]
		for _, app := range []string{"bfs", "sssp"} {
			a := LookupAlgorithm(app)
			run := func(workers int) *Result {
				dev := reorderDevice(workers, window)
				dg, err := Upload(dev, g, ZeroCopy, 8)
				if err != nil {
					t.Fatalf("%s/%s: %v", g.Name, app, err)
				}
				res, err := a.Run(context.Background(), dev, dg, src, MergedAligned)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", g.Name, app, workers, err)
				}
				return res
			}
			serial := run(1)
			for _, workers := range []int{4, 13} {
				par := run(workers)
				if !reflect.DeepEqual(serial.Values, par.Values) {
					t.Errorf("%s/%s: values diverge at %d workers with reorder on",
						g.Name, app, workers)
				}
				if serial.Stats != par.Stats {
					t.Errorf("%s/%s: stats diverge at %d workers with reorder on:\n serial: %+v\n par:    %+v",
						g.Name, app, workers, serial.Stats, par.Stats)
				}
				if serial.Elapsed != par.Elapsed {
					t.Errorf("%s/%s: simulated time diverges at %d workers: %v vs %v",
						g.Name, app, workers, serial.Elapsed, par.Elapsed)
				}
			}
		}
	}

	// Batched lanes: the shared run's counters and each lane's values must
	// be partition-independent too.
	g := gs[0]
	bsrcs := graph.PickSources(g, 4, 43)
	specs := make([]BatchSpec, len(bsrcs))
	for i, s := range bsrcs {
		specs[i] = BatchSpec{Src: s}
	}
	runBatch := func(workers int) *BatchOutcome {
		dev := reorderDevice(workers, window)
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunBatchAlgo(context.Background(), dev, dg, "bfs", specs, MergedAligned)
		if err != nil {
			t.Fatalf("batch workers=%d: %v", workers, err)
		}
		return out
	}
	serial := runBatch(1)
	par := runBatch(4)
	for i := range specs {
		sres, perr := serial.Results[i], par.Results[i]
		if sres.Err != nil || perr.Err != nil {
			t.Fatalf("batch lane %d: %v / %v", i, sres.Err, perr.Err)
		}
		if !reflect.DeepEqual(sres.Res.Values, perr.Res.Values) {
			t.Errorf("batch lane %d: values diverge across worker counts with reorder on", i)
		}
		if sres.Res.Stats != perr.Res.Stats {
			t.Errorf("batch lane %d: stats diverge across worker counts with reorder on", i)
		}
	}
}

// TestReorderConservation runs off-vs-on across graphs, algorithms, and
// window sizes, asserting the conservation invariants, and requires the
// stage to actually merge something somewhere (otherwise it is dead code).
func TestReorderConservation(t *testing.T) {
	merged := uint64(0)
	for _, g := range testGraphs()[:3] {
		src := graph.PickSources(g, 1, 43)[0]
		for _, app := range []string{"bfs", "sssp"} {
			a := LookupAlgorithm(app)
			run := func(window int) *Result {
				dev := reorderDevice(1, window)
				dg, err := Upload(dev, g, ZeroCopy, 8)
				if err != nil {
					t.Fatalf("%s/%s: %v", g.Name, app, err)
				}
				res, err := a.Run(context.Background(), dev, dg, src, MergedAligned)
				if err != nil {
					t.Fatalf("%s/%s window=%d: %v", g.Name, app, window, err)
				}
				return res
			}
			off := run(0)
			for _, window := range []int{8, 64} {
				on := run(window)
				checkReorderConservation(t,
					fmt.Sprintf("%s/%s/w%d", g.Name, app, window), off, on, window)
				merged += on.Stats.ReorderMerged
			}
		}
	}
	if merged == 0 {
		t.Error("reorder stage merged zero requests across the whole matrix; the stage is not engaging")
	}
}

// FuzzReorderWindow fuzzes the conservation invariants: random graphs,
// sources, window sizes (0, sub-minimum, large), and algorithms. No
// request may be lost or duplicated, the window bound must hold, and the
// traversal output must be bit-identical to the stage being off.
func FuzzReorderWindow(f *testing.F) {
	f.Add(int64(1), uint16(64), uint8(4), uint8(8), uint8(0))
	f.Add(int64(2), uint16(200), uint8(8), uint8(0), uint8(1))
	f.Add(int64(3), uint16(120), uint8(3), uint8(2), uint8(2))
	f.Add(int64(4), uint16(300), uint8(6), uint8(255), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nv uint16, deg uint8, win uint8, algoIdx uint8) {
		n := int(nv)%300 + 2
		avgDeg := int(deg)%8 + 1
		window := int(win) % 96
		g := graph.Urand("fuzz-reorder", n, avgDeg, seed)
		g.InitWeights(seed+1, 1, 64)
		srcs := graph.PickSources(g, 1, seed)
		if srcs == nil {
			t.Skip("no vertex with outgoing edges")
		}
		src := srcs[0]
		algos := []string{"bfs", "sssp", "cc", "sswp"}
		a := LookupAlgorithm(algos[int(algoIdx)%len(algos)])
		if a.NeedsUndirected && g.Directed {
			t.Skip("directed graph for undirected-only algorithm")
		}
		run := func(window int) *Result {
			dev := reorderDevice(1, window)
			dg, err := Upload(dev, g, ZeroCopy, 8)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run(context.Background(), dev, dg, src, MergedAligned)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		off := run(0)
		on := run(window)
		checkReorderConservation(t, a.Name, off, on, window)
		if err := on.Validate(g); err != nil {
			t.Errorf("%s with window %d: %v", a.Name, window, err)
		}
	})
}
