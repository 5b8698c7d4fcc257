package emogi_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (see DESIGN.md §5 for the index). Each benchmark runs the corresponding
// harness runner at the reduced QuickConfig scale and reports the headline
// simulated metrics via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the whole evaluation in miniature. cmd/emogi-bench runs the
// same runners at full scale.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	emogi "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
)

// benchConfig is the shared reduced configuration.
func benchConfig() bench.Config { return bench.QuickConfig() }

// BenchmarkFig3RequestPatterns regenerates Figure 3: the PCIe request-size
// mix of the toy traversal's three access patterns.
func BenchmarkFig3RequestPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := bench.Figure3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.Render())
		}
	}
}

// BenchmarkFig4ToyBandwidth regenerates Figure 4: toy traversal PCIe and
// DRAM bandwidths, reporting the three patterns in GB/s.
func BenchmarkFig4ToyBandwidth(b *testing.B) {
	cfg := benchConfig()
	var strided, aligned, misaligned float64
	for i := 0; i < b.N; i++ {
		for _, tc := range []struct {
			p   core.ToyPattern
			dst *float64
		}{
			{core.ToyStrided, &strided},
			{core.ToyMergedAligned, &aligned},
			{core.ToyMergedMisaligned, &misaligned},
		} {
			gcfg := emogi.V100PCIe3(cfg.Scale).GPU
			gcfg.Tiers.HBM().CapacityBytes = 0 // the toy's output array is not under test
			dev := gpu.NewDevice(gcfg)
			r, err := core.ToyTraverse(dev, 1<<20, tc.p, core.ZeroCopy)
			if err != nil {
				b.Fatal(err)
			}
			*tc.dst = r.PCIeBandwidth / 1e9
		}
	}
	b.ReportMetric(strided, "strided-GB/s")
	b.ReportMetric(misaligned, "misaligned-GB/s")
	b.ReportMetric(aligned, "aligned-GB/s")
}

// BenchmarkTable2Datasets regenerates Table 2: dataset synthesis and
// inventory statistics.
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := bench.NewDatasets(benchConfig())
		t := bench.Table2(ds)
		if len(t.Rows) != 6 {
			b.Fatalf("rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Render())
		}
	}
}

// BenchmarkFig6DegreeCDF regenerates Figure 6: the edge-count CDF over
// vertex degree for all six graphs.
func BenchmarkFig6DegreeCDF(b *testing.B) {
	ds := bench.NewDatasets(benchConfig())
	for _, sym := range bench.AllSyms() {
		ds.Get(sym) // build outside the timed loop
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := bench.Figure6(ds)
		if len(t.Rows) != 6 {
			b.Fatalf("rows = %d", len(t.Rows))
		}
		if i == 0 {
			b.Log("\n" + t.Render())
		}
	}
}

// benchSweep runs the §5.3 BFS case-study sweep once and caches it for the
// figure benchmarks that are views over it.
var cachedSweep *bench.BFSSweep
var cachedSweepDS *bench.Datasets

func getSweep(b *testing.B) (*bench.BFSSweep, *bench.Datasets) {
	b.Helper()
	if cachedSweep == nil {
		ds := bench.NewDatasets(benchConfig())
		sweep, err := bench.RunBFSSweep(ds)
		if err != nil {
			b.Fatal(err)
		}
		cachedSweep = sweep
		cachedSweepDS = ds
	}
	return cachedSweep, cachedSweepDS
}

// BenchmarkFig5RequestSizes regenerates Figure 5: BFS PCIe request size
// distributions, reporting the Merged+Aligned 128B share averaged over
// graphs.
func BenchmarkFig5RequestSizes(b *testing.B) {
	sweep, _ := getSweep(b)
	var share float64
	for i := 0; i < b.N; i++ {
		t := bench.Figure5(sweep)
		if i == 0 {
			b.Log("\n" + t.Render())
		}
		total := 0.0
		for _, sym := range bench.AllSyms() {
			mon := sweep.Cell(sym, "Merged+Aligned").Monitor
			total += float64(mon.BySize[128]) / float64(mon.Requests)
		}
		share = total / float64(len(bench.AllSyms()))
	}
	b.ReportMetric(share*100, "aligned-128B-%")
}

// BenchmarkFig7RequestCounts regenerates Figure 7: total PCIe requests per
// implementation, reporting the average merge-optimization cut.
func BenchmarkFig7RequestCounts(b *testing.B) {
	sweep, _ := getSweep(b)
	var cut float64
	for i := 0; i < b.N; i++ {
		t := bench.Figure7(sweep)
		if i == 0 {
			b.Log("\n" + t.Render())
		}
		total := 0.0
		for _, sym := range bench.AllSyms() {
			n := float64(sweep.Cell(sym, "Naive").Monitor.Requests)
			m := float64(sweep.Cell(sym, "Merged").Monitor.Requests)
			total += 1 - m/n
		}
		cut = total / float64(len(bench.AllSyms()))
	}
	b.ReportMetric(cut*100, "merge-request-cut-%")
}

// BenchmarkFig8Bandwidth regenerates Figure 8: average PCIe bandwidth
// during BFS, reporting the Merged+Aligned mean in GB/s.
func BenchmarkFig8Bandwidth(b *testing.B) {
	sweep, _ := getSweep(b)
	var bw float64
	for i := 0; i < b.N; i++ {
		t := bench.Figure8(sweep)
		if i == 0 {
			b.Log("\n" + t.Render())
		}
		total := 0.0
		for _, sym := range bench.AllSyms() {
			total += sweep.Cell(sym, "Merged+Aligned").MeanBandwidth()
		}
		bw = total / float64(len(bench.AllSyms())) / 1e9
	}
	b.ReportMetric(bw, "aligned-GB/s")
}

// BenchmarkFig9BFSSpeedup regenerates Figure 9: BFS performance normalized
// to UVM, reporting the Merged+Aligned average speedup.
func BenchmarkFig9BFSSpeedup(b *testing.B) {
	sweep, _ := getSweep(b)
	var avg float64
	for i := 0; i < b.N; i++ {
		t := bench.Figure9(sweep)
		if i == 0 {
			b.Log("\n" + t.Render())
		}
		total := 0.0
		for _, sym := range bench.AllSyms() {
			total += emogi.Speedup(sweep.Cell(sym, "UVM"),
				sweep.Cell(sym, "Merged+Aligned"))
		}
		avg = total / float64(len(bench.AllSyms()))
	}
	b.ReportMetric(avg, "speedup-vs-uvm")
}

// BenchmarkFig10Amplification regenerates Figure 10: I/O read
// amplification, reporting UVM's and EMOGI's averages.
func BenchmarkFig10Amplification(b *testing.B) {
	sweep, ds := getSweep(b)
	var uvmAmp, emAmp float64
	for i := 0; i < b.N; i++ {
		t := bench.Figure10(sweep, ds)
		if i == 0 {
			b.Log("\n" + t.Render())
		}
		u, e := 0.0, 0.0
		for _, sym := range bench.AllSyms() {
			dataset := ds.Get(sym).EdgeListBytes(8)
			u += sweep.Cell(sym, "UVM").IOAmplification(dataset)
			e += sweep.Cell(sym, "Merged+Aligned").IOAmplification(dataset)
		}
		uvmAmp, emAmp = u/6, e/6
	}
	b.ReportMetric(uvmAmp, "uvm-amplification")
	b.ReportMetric(emAmp, "emogi-amplification")
}

// BenchmarkFig11AllApps regenerates Figure 11: SSSP/BFS/CC speedups over
// UVM, reporting the overall average (the paper's 2.92x).
func BenchmarkFig11AllApps(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		ds := bench.NewDatasets(benchConfig())
		sweep, err := bench.RunAppSweep(ds, emogi.V100PCIe3)
		if err != nil {
			b.Fatal(err)
		}
		t := bench.Figure11(sweep)
		if i == 0 {
			b.Log("\n" + t.Render())
		}
		total, count := 0.0, 0
		for _, app := range bench.PaperApps {
			for _, sym := range bench.AppGraphs(app) {
				total += emogi.Speedup(sweep.Cell(app, sym, "UVM"),
					sweep.Cell(app, sym, "EMOGI"))
				count++
			}
		}
		avg = total / float64(count)
	}
	b.ReportMetric(avg, "avg-speedup-vs-uvm")
}

// BenchmarkFig12PCIe4Scaling regenerates Figure 12: PCIe 3.0 vs 4.0
// scaling on the A100, reporting both systems' link-scaling factors.
func BenchmarkFig12PCIe4Scaling(b *testing.B) {
	var uvmScale, emScale float64
	for i := 0; i < b.N; i++ {
		ds := bench.NewDatasets(benchConfig())
		t, err := bench.Figure12(ds)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.Render())
		}
		// The scaling factors are in the note; recompute them directly.
		gen3, err := bench.RunAppSweep(ds, emogi.A100PCIe3)
		if err != nil {
			b.Fatal(err)
		}
		gen4, err := bench.RunAppSweep(ds, emogi.A100PCIe4)
		if err != nil {
			b.Fatal(err)
		}
		u, e, n := 0.0, 0.0, 0
		for _, app := range bench.PaperApps {
			for _, sym := range bench.AppGraphs(app) {
				u += emogi.Speedup(gen4.Cell(app, sym, "UVM"), gen3.Cell(app, sym, "UVM"))
				e += emogi.Speedup(gen4.Cell(app, sym, "EMOGI"), gen3.Cell(app, sym, "EMOGI"))
				n++
			}
		}
		// emogi.Speedup(gen4, gen3) = gen4/gen3 elapsed ratio; invert for scaling.
		uvmScale, emScale = 1/(u/float64(n)), 1/(e/float64(n))
	}
	b.ReportMetric(uvmScale, "uvm-gen4-scaling")
	b.ReportMetric(emScale, "emogi-gen4-scaling")
}

// BenchmarkTable3PriorWork regenerates Table 3: EMOGI vs HALO and Subway.
func BenchmarkTable3PriorWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := bench.NewDatasets(benchConfig())
		t, err := bench.Table3(ds)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + t.Render())
		}
	}
}

// BenchmarkCoreBFSMergedAligned is a plain throughput benchmark of the
// fully-optimized BFS kernel (simulator edges traversed per wall-clock
// second), for tracking the simulator's own performance.
func BenchmarkCoreBFSMergedAligned(b *testing.B) {
	g, err := emogi.BuildDataset("GK", 0.1, 42)
	if err != nil {
		b.Fatal(err)
	}
	sys := emogi.NewSystem(emogi.V100PCIe3(0.1))
	dg, err := sys.Load(g)
	if err != nil {
		b.Fatal(err)
	}
	src := emogi.PickSources(g, 1, 1)[0]
	ctx := context.Background()
	req := emogi.Request{Graph: dg, Algo: "bfs", Src: src, Variant: emogi.MergedAligned}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumEdges()*int64(b.N))/b.Elapsed().Seconds(), "sim-edges/s")
}

// BenchmarkCoalescer measures the simulator's coalescing unit in
// isolation, one warp instruction per op: a scalar and a pair load, a
// 32-lane contiguous zero-copy gather through the lane path (one 128B
// request per 16 lanes) and the same lanes through the merged walk's range
// gather, a 32-lane random-index relax (atomicMin returning the winning
// lanes) on device memory, the same relax on ascending indices (a
// visitor's atomics on a sorted neighbor list, whose sectors need no
// sort), and a gather through a transport route table alternating
// zero-copy and HBM segments. The lane MRU is invalidated before every op
// so reads always reach the request path. The steady-state cases keep it,
// as a warp's merged walk does: range gathers stepping through one
// neighbor list, a scalar load of consecutive HBM labels, and an ascending
// relax followed by the frontier OR of its winners on HBM.
func BenchmarkCoalescer(b *testing.B) {
	var contig, random, ascending [gpu.WarpSize]int64
	r := rand.New(rand.NewSource(1))
	for i := range contig {
		contig[i] = int64(i)
		random[i] = r.Int63n(1 << 17) // within the 1 MiB buffer at 8 bytes
	}
	ascending = random
	slices.Sort(ascending[:])
	var vals [gpu.WarpSize]uint32
	// steady runs op(w, buf, i) for i = 0..b.N-1 without invalidating the
	// MRU between ops.
	steady := func(b *testing.B, space memsys.Space, op func(w *gpu.Warp, buf *memsys.Buffer, i int)) {
		dev := gpu.NewDevice(emogi.V100PCIe3(1).GPU)
		buf := dev.Arena().MustAlloc("buf", space, 1<<20)
		b.ReportAllocs()
		b.ResetTimer()
		dev.Launch("bench", 1, func(w *gpu.Warp) {
			for i := 0; i < b.N; i++ {
				op(w, buf, i)
			}
		})
	}
	run := func(b *testing.B, space memsys.Space, route []memsys.Space, op func(w *gpu.Warp, buf *memsys.Buffer)) {
		dev := gpu.NewDevice(emogi.V100PCIe3(1).GPU)
		buf := dev.Arena().MustAlloc("buf", space, 1<<20)
		if route != nil {
			buf.SetRoute(route, memsys.SegmentShift)
		}
		b.ReportAllocs()
		b.ResetTimer()
		dev.Launch("bench", 1, func(w *gpu.Warp) {
			for i := 0; i < b.N; i++ {
				w.InvalidateMRU()
				op(w, buf)
			}
		})
	}
	b.Run("scalar", func(b *testing.B) {
		run(b, memsys.SpaceHostPinned, nil, func(w *gpu.Warp, buf *memsys.Buffer) { w.ScalarU32(buf, 5) })
	})
	b.Run("pair", func(b *testing.B) {
		run(b, memsys.SpaceHostPinned, nil, func(w *gpu.Warp, buf *memsys.Buffer) { w.PairU64(buf, 5) })
	})
	b.Run("gather-contiguous-zc", func(b *testing.B) {
		run(b, memsys.SpaceHostPinned, nil, func(w *gpu.Warp, buf *memsys.Buffer) { w.GatherU64(buf, &contig, gpu.MaskFull) })
	})
	b.Run("gather-range-zc", func(b *testing.B) {
		var out [gpu.WarpSize]uint32
		run(b, memsys.SpaceHostPinned, nil, func(w *gpu.Warp, buf *memsys.Buffer) { w.GatherRange(buf, 8, 0, 0, gpu.WarpSize, &out) })
	})
	b.Run("atomic-random-hbm", func(b *testing.B) {
		run(b, memsys.SpaceGPU, nil, func(w *gpu.Warp, buf *memsys.Buffer) { w.RelaxMinU32(buf, &random, &vals, gpu.MaskFull) })
	})
	b.Run("atomic-ascending-hbm", func(b *testing.B) {
		run(b, memsys.SpaceGPU, nil, func(w *gpu.Warp, buf *memsys.Buffer) { w.RelaxMinU32(buf, &ascending, &vals, gpu.MaskFull) })
	})
	b.Run("gather-range-steady-zc", func(b *testing.B) {
		var out [gpu.WarpSize]uint32
		steady(b, memsys.SpaceHostPinned, func(w *gpu.Warp, buf *memsys.Buffer, i int) {
			w.GatherRange(buf, 8, int64(i%(1<<12))*gpu.WarpSize, 0, gpu.WarpSize, &out)
		})
	})
	b.Run("scalar-steady-hbm", func(b *testing.B) {
		steady(b, memsys.SpaceGPU, func(w *gpu.Warp, buf *memsys.Buffer, i int) { w.ScalarU32(buf, int64(i%(1<<18))) })
	})
	b.Run("relax-or-steady-hbm", func(b *testing.B) {
		steady(b, memsys.SpaceGPU, func(w *gpu.Warp, buf *memsys.Buffer, _ int) {
			won := w.RelaxMinU32(buf, &ascending, &vals, gpu.MaskFull)
			w.AtomicOrLanesU32(buf, &ascending, 1, gpu.MaskFull, won)
		})
	})
	b.Run("gather-routed", func(b *testing.B) {
		route := make([]memsys.Space, (1<<20)/memsys.SegmentBytes)
		for i := range route {
			route[i] = memsys.SpaceHostPinned
			if i%2 == 1 {
				route[i] = memsys.SpaceGPU
			}
		}
		run(b, memsys.SpaceHostPinned, route, func(w *gpu.Warp, buf *memsys.Buffer) { w.GatherU64(buf, &random, gpu.MaskFull) })
	})
}

// BenchmarkGenerators measures dataset synthesis throughput.
func BenchmarkGenerators(b *testing.B) {
	for _, sym := range bench.AllSyms() {
		b.Run(sym, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				g, err := emogi.BuildDataset(sym, 0.1, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				edges = g.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkRefAlgorithms measures the CPU reference implementations used
// for validation.
func BenchmarkRefAlgorithms(b *testing.B) {
	g, err := emogi.BuildDataset("GU", 0.1, 42)
	if err != nil {
		b.Fatal(err)
	}
	src := emogi.PickSources(g, 1, 1)[0]
	b.Run("BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.RefBFS(g, src)
		}
	})
	b.Run("SSSP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.RefSSSP(g, src)
		}
	})
	b.Run("CC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.RefCC(g)
		}
	})
}

// BenchmarkLaunchWorkers measures host wall-clock scaling of the parallel
// launch engine: the same Merged+Aligned run with 1, 2, 4, and 8 worker
// goroutines per kernel launch — BFS over the zero-copy edge list, and
// (sub-benchmark "adaptive") SSSP under the adaptive transport policy,
// which binds some partitions to UVM, so its launches replay their UVM
// touches at the barrier (uvm-pages reports the migrations). Simulated
// results are bit-for-bit identical across the worker counts (enforced by
// internal/core/parallel_test.go, and checked here on the simulated time);
// only the wall-clock time here should change, and only on hosts with
// that many cores to offer.
func BenchmarkLaunchWorkers(b *testing.B) {
	g, err := emogi.BuildDataset("GK", 0.3, 42)
	if err != nil {
		b.Fatal(err)
	}
	src := emogi.PickSources(g, 1, 1)[0]
	benchLaunchWorkers(b, g, src, "bfs", emogi.StaticPolicy(emogi.ZeroCopy))
	b.Run("adaptive", func(b *testing.B) { benchLaunchWorkers(b, g, src, "sssp", emogi.AdaptivePolicy()) })
}

// benchLaunchWorkers runs algo from src under pol at each worker count,
// failing if the simulated time differs between them.
func benchLaunchWorkers(b *testing.B, g *emogi.Graph, src int, algo string, pol emogi.TransportPolicy) {
	var refElapsed time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			cfg := emogi.V100PCIe3(0.3)
			cfg.Workers = workers
			sys := emogi.NewSystem(cfg)
			dg, err := sys.Load(g, emogi.WithTransportPolicy(pol))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			req := emogi.Request{Graph: dg, Algo: algo, Src: src, Variant: emogi.MergedAligned}
			b.ResetTimer()
			var res *emogi.Result
			for i := 0; i < b.N; i++ {
				if res, err = sys.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if workers == 1 {
				refElapsed = res.Elapsed
			} else if refElapsed != 0 && res.Elapsed != refElapsed {
				b.Fatalf("simulated time diverged at %d workers: %v vs %v", workers, res.Elapsed, refElapsed)
			}
			b.ReportMetric(float64(g.NumEdges()*int64(b.N))/b.Elapsed().Seconds(), "sim-edges/s")
			b.ReportMetric(float64(res.Stats.UVMMigrations), "uvm-pages")
		})
	}
}

// BenchmarkAblations runs the seven design-choice ablations at quick scale
// (see internal/bench/ablation.go and DESIGN.md §6).
func BenchmarkAblations(b *testing.B) {
	ablations := []struct {
		name string
		run  func(*bench.Datasets) (*bench.Table, error)
	}{
		{"UVMBlock", bench.AblationUVMBlock},
		{"WorkerSize", bench.AblationWorkerSize},
		{"Compression", bench.AblationCompression},
		{"Link", bench.AblationLink},
		{"EdgeCentric", bench.AblationEdgeCentric},
		{"DirectionOpt", bench.AblationDirectionOpt},
		{"Thrash", bench.AblationThrash},
	}
	for _, ab := range ablations {
		b.Run(ab.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds := bench.NewDatasets(benchConfig())
				t, err := ab.run(ds)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Log("\n" + t.Render())
				}
			}
		})
	}
}

// BenchmarkBatchRun measures the multi-source batched engine (DESIGN.md
// §13): K BFS sources advanced through one shared fixed-point loop on
// GK at 0.3 scale. The headline metric is edge-scans/query — the edge
// reads one query costs after lane sharing amortizes the sweep; at K=1
// it equals a solo run's scan count and it must fall monotonically as K
// grows (the acceptance criterion: a K=32 batch scans measurably fewer
// edges than 32 sequential runs). ns/edge is host wall-clock per
// simulated edge scan; scans-saved-% is the fraction of the unshared
// K-run scan volume the lane bitmask eliminated. The device is uncapped
// because the lane-major state scales with K, not with the dataset the
// simulated V100's memory was sized for.
func BenchmarkBatchRun(b *testing.B) {
	g, err := emogi.BuildDataset("GK", 0.3, 42)
	if err != nil {
		b.Fatal(err)
	}
	srcs := emogi.PickSources(g, 64, 9)
	if len(srcs) < 64 {
		b.Fatalf("only %d sources available", len(srcs))
	}
	for _, k := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			gcfg := emogi.V100PCIe3(0.3).GPU
			gcfg.Tiers.HBM().CapacityBytes = 0
			dev := gpu.NewDevice(gcfg)
			dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
			if err != nil {
				b.Fatal(err)
			}
			specs := make([]core.BatchSpec, k)
			for i := range specs {
				specs[i].Src = srcs[i]
			}
			b.ResetTimer()
			var out *core.BatchOutcome
			for i := 0; i < b.N; i++ {
				out, err = core.RunBatchAlgo(context.Background(), dev, dg, "bfs", specs, core.MergedAligned)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			total := out.EdgeScans
			unshared := out.EdgeScans + out.EdgeScansSaved
			b.ReportMetric(float64(total)/float64(k), "edge-scans/query")
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(total)/float64(b.N), "ns/edge")
			b.ReportMetric(100*float64(out.EdgeScansSaved)/float64(unshared), "scans-saved-%")
		})
	}
}
