// Command emogi runs one graph traversal on the simulated system and
// reports its simulated time and PCIe traffic, e.g.:
//
//	emogi -graph GK -app bfs -variant merged+aligned -transport static-zc
//	emogi -graph SK -app sssp -transport static-uvm -sources 8
//	emogi -graph GK -app bfs -transport adaptive
//	emogi -file mygraph.csr -app cc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("emogi: ")

	var (
		graphSym  = flag.String("graph", "GK", "dataset symbol (GK GU FS ML SK UK5)")
		graphFile = flag.String("file", "", "load a CSR graph file instead of generating")
		app       = flag.String("app", "bfs", "application: bfs, sssp, or cc")
		algo      = flag.String("algo", "", "algorithm registry name (overrides -app; \"list\" prints all)")
		variant   = flag.String("variant", "merged+aligned",
			"kernel variant: naive, merged, merged+aligned; BFS also accepts balanced and compressed")
		transport = flag.String("transport", "static-zc",
			"edge-list transport policy: static-zc, static-uvm, or adaptive (legacy spellings zerocopy/uvm still accepted)")
		scale     = flag.Float64("scale", 1.0, "dataset scale (1.0 = standard 1:1000 reduction)")
		seed      = flag.Int64("seed", 42, "generator and source seed")
		sources   = flag.Int("sources", 4, "number of source vertices to average over")
		elemBytes = flag.Int("elem", 8, "edge element width in bytes (4 or 8)")
		platform  = flag.String("platform", "v100", "platform: v100, titanxp, a100-pcie3, a100-pcie4")
		tiers     = flag.String("tiers", "2tier",
			"memory-tier stack: 2tier (the classic machine) or 3tier-cxl (adds CXL-class external memory)")
		paging = flag.String("paging", "cpu",
			"UVM paging model: cpu (serialized fault handler) or gpu (GPU-driven page fetch)")
		placement = flag.String("placement", "auto",
			"edge-list tier placement: auto (DRAM with CXL spill), dram, or cxl")
		validate = flag.Bool("validate", true, "validate results against CPU references")
		kernels  = flag.Bool("kernels", false, "print the per-kernel (per-level) breakdown of the last run")
		reorder  = flag.Int("reorder-window", 0,
			"IARU-style reorder window in 32B sectors (0 disables; >0 buffers off-device accesses and re-groups them by 128B line before dispatch)")
		compare = flag.Bool("compare", false, "run the UVM baseline alongside and print the speedup")
		gpus    = flag.Int("gpus", 1, "simulated GPU count (>1 uses the multi-GPU engine; BFS/SSSP/CC)")
	)
	flag.Parse()

	if *algo == "list" {
		fmt.Println("registered algorithms:")
		for _, a := range emogi.Algorithms() {
			fmt.Printf("  %-16s %s\n", a.Name, a.Description)
		}
		return
	}

	var g *emogi.Graph
	var err error
	if *graphFile != "" {
		g, err = graph.ReadFile(*graphFile)
		if err != nil {
			log.Fatalf("loading %s: %v", *graphFile, err)
		}
	} else {
		g, err = emogi.BuildDataset(strings.ToUpper(*graphSym), *scale, *seed)
		if err != nil {
			log.Fatal(err)
		}
	}

	// -algo dispatches straight through the algorithm registry; -app is
	// the typed three-application convenience that resolves to a registry
	// name ("bfs", "sssp", "cc").
	algoName := strings.ToLower(*algo)
	if algoName == "" {
		appID, err := parseApp(*app)
		if err != nil {
			log.Fatal(err)
		}
		algoName = strings.ToLower(appID.String())

		// The BFS extensions (balanced workload, compressed edge list) keep
		// their historical -variant spellings as an alias for -algo.
		ext := strings.ToLower(*variant)
		if ext == "balanced" || ext == "compressed" {
			if appID != emogi.BFS {
				log.Fatalf("variant %q only supports -app bfs", ext)
			}
			runExtension(g, ext, *platform, *scale, *sources, *seed, *reorder, *validate)
			return
		}
		if *gpus > 1 {
			cfg, err := parsePlatform(*platform, *scale)
			if err != nil {
				log.Fatal(err)
			}
			// runMultiGPU builds devices from cfg.GPU directly, so apply the
			// override here rather than through NewSystem.
			cfg.GPU.ReorderWindow = *reorder
			runMultiGPU(g, appID, cfg, *gpus, *sources, *seed, *elemBytes, *validate)
			return
		}
	} else if *gpus > 1 {
		log.Fatal("-algo does not support -gpus > 1 (use -app for the multi-GPU engine)")
	}
	v, err := parseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := emogi.PolicyByName(*transport)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := parsePlatform(*platform, *scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err = emogi.ApplyTierStack(cfg, *tiers)
	if err != nil {
		log.Fatal(err)
	}
	switch strings.ToLower(*paging) {
	case "cpu", "":
	case "gpu":
		cfg.GPUDrivenPaging = true
	default:
		log.Fatalf("unknown paging model %q (want cpu or gpu)", *paging)
	}
	place, err := emogi.ParsePlacement(*placement)
	if err != nil {
		log.Fatal(err)
	}
	cfg.ReorderWindow = *reorder

	sys := emogi.NewSystem(cfg)
	dg, err := sys.Load(g, emogi.WithTransportPolicy(pol), emogi.WithElemBytes(*elemBytes),
		emogi.WithPlacement(place))
	if err != nil {
		log.Fatalf("loading graph onto device: %v", err)
	}
	srcs := emogi.PickSources(g, *sources, *seed)
	if srcs == nil {
		log.Fatal("graph has no vertices with outgoing edges")
	}

	sum, err := sys.RunManyAlgo(dg, algoName, srcs, v)
	if err != nil {
		log.Fatal(err)
	}
	if *validate {
		for _, r := range sum.Results {
			if err := emogi.Validate(g, r); err != nil {
				log.Fatalf("validation failed: %v", err)
			}
		}
	}

	fmt.Printf("platform:   %s\n", cfg.Name)
	fmt.Printf("graph:      %s  |V|=%d |E|=%d (%.1f MB edge list, %d-byte elements)\n",
		g.Name, g.NumVertices(), g.NumEdges(),
		float64(g.EdgeListBytes(*elemBytes))/1e6, *elemBytes)
	fmt.Printf("run:        %s, %s kernel, %s transport, %d source(s)\n",
		sum.Algo, v, pol.Name(), len(sum.Results))
	fmt.Printf("mean time:  %v (simulated)\n", sum.MeanElapsed)
	fmt.Printf("iterations: %d (first source)\n", sum.Results[0].Iterations)
	fmt.Printf("PCIe:       %.2f GB/s average payload bandwidth\n", sum.MeanBandwidth()/1e9)
	fmt.Printf("traffic:    %s\n", sum.Monitor)
	amp := sum.IOAmplification(g.EdgeListBytes(*elemBytes))
	fmt.Printf("I/O amp:    %.2fx of edge-list bytes per run\n", amp)
	if sum.Stats.CXLRequests > 0 {
		fmt.Printf("CXL:        reqs=%d payload=%d bytes over the external tier's link\n",
			sum.Stats.CXLRequests, sum.Stats.CXLPayloadBytes)
	}
	if *validate {
		fmt.Println("validated:  results match CPU reference")
	}
	if st, isStatic := pol.Static(); *compare && (!isStatic || st == emogi.ZeroCopy) {
		sysU := emogi.NewSystem(cfg)
		dgU, err := sysU.Load(g, emogi.WithTransportPolicy(emogi.StaticPolicy(emogi.UVM)), emogi.WithElemBytes(*elemBytes))
		if err != nil {
			log.Fatalf("loading UVM baseline: %v", err)
		}
		uvmSum, err := sysU.RunManyAlgo(dgU, algoName, srcs, emogi.Merged)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline:   UVM %v -> speedup %.2fx\n",
			uvmSum.MeanElapsed, emogi.Speedup(uvmSum, sum))
	}
	if *kernels {
		printKernelLog(sys.Device())
	}
	os.Exit(0)
}

// runMultiGPU measures the §7 multi-GPU engine.
func runMultiGPU(g *emogi.Graph, app emogi.App, cfg emogi.SystemConfig, n, sources int, seed int64, elemBytes int, validate bool) {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.NewDevice(cfg.GPU)
	}
	ms, err := core.NewMultiSystem(devs, g, elemBytes)
	if err != nil {
		log.Fatal(err)
	}
	defer ms.Free()
	srcs := emogi.PickSources(g, sources, seed)
	if srcs == nil {
		log.Fatal("graph has no vertices with outgoing edges")
	}
	var total time.Duration
	runs := 0
	for _, src := range srcs {
		var res *emogi.Result
		switch app {
		case emogi.SSSP:
			res, err = ms.SSSP(src)
		case emogi.CC:
			res, err = ms.CC()
		default:
			res, err = ms.BFS(src)
		}
		if err != nil {
			log.Fatal(err)
		}
		if validate {
			if err := emogi.Validate(g, res); err != nil {
				log.Fatalf("validation failed: %v", err)
			}
		}
		total += res.Elapsed
		runs++
		if app == emogi.CC {
			break
		}
	}
	fmt.Printf("platform:   %s x%d\n", cfg.Name, n)
	fmt.Printf("run:        %s (multi-GPU), %d source(s)\n", app, runs)
	fmt.Printf("mean time:  %v (simulated)\n", total/time.Duration(runs))
	for i := 0; i < n; i++ {
		lo, hi := ms.Partition(i)
		fmt.Printf("  GPU %d owns vertices [%d, %d)\n", i, lo, hi)
	}
	if validate {
		fmt.Println("validated:  results match CPU reference")
	}
}

// printKernelLog dumps the simulated device's per-launch statistics — the
// level-by-level view of how traffic and time evolve over a traversal.
func printKernelLog(dev *gpu.Device) {
	fmt.Println("\nper-kernel breakdown (all runs):")
	fmt.Printf("%-28s %8s %10s %12s %12s %10s\n",
		"kernel", "warps", "PCIe reqs", "payload KB", "migrations", "elapsed")
	for _, ks := range dev.Kernels() {
		fmt.Printf("%-28s %8d %10d %12.1f %12d %10v\n",
			ks.Name, ks.Warps, ks.PCIeRequests,
			float64(ks.PCIePayloadBytes)/1e3, ks.UVMMigrations, ks.Elapsed)
	}
}

// runExtension measures the balanced or compressed BFS extension.
func runExtension(g *emogi.Graph, ext, platform string, scale float64, sources int, seed int64, reorder int, validate bool) {
	cfg, err := parsePlatform(platform, scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.GPU.ReorderWindow = reorder
	srcs := emogi.PickSources(g, sources, seed)
	if srcs == nil {
		log.Fatal("graph has no vertices with outgoing edges")
	}
	dev := gpu.NewDevice(cfg.GPU)
	var total time.Duration
	var payload uint64
	var iterations int
	switch ext {
	case "balanced":
		dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
		if err != nil {
			log.Fatal(err)
		}
		for _, src := range srcs {
			res, err := core.BFSBalanced(dev, dg, src, 1024)
			if err != nil {
				log.Fatal(err)
			}
			if validate {
				if err := res.Validate(g); err != nil {
					log.Fatalf("validation failed: %v", err)
				}
			}
			total += res.Elapsed
			payload += res.Stats.PCIePayloadBytes
			iterations = res.Iterations
		}
	case "compressed":
		cdg, err := core.UploadCompressed(dev, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compression: %.1f MB -> %.1f MB (%.2fx)\n",
			float64(cdg.PlainBytes)/1e6, float64(cdg.CompressedBytes)/1e6, cdg.Ratio())
		for _, src := range srcs {
			res, err := core.BFSCompressed(dev, cdg, src)
			if err != nil {
				log.Fatal(err)
			}
			if validate {
				if err := res.Validate(g); err != nil {
					log.Fatalf("validation failed: %v", err)
				}
			}
			total += res.Elapsed
			payload += res.Stats.PCIePayloadBytes
			iterations = res.Iterations
		}
	}
	fmt.Printf("platform:   %s\n", cfg.Name)
	fmt.Printf("run:        BFS (%s extension), %d source(s)\n", ext, len(srcs))
	fmt.Printf("mean time:  %v (simulated)\n", total/time.Duration(len(srcs)))
	fmt.Printf("iterations: %d (last source)\n", iterations)
	fmt.Printf("payload:    %.1f MB over PCIe across all runs\n", float64(payload)/1e6)
	if validate {
		fmt.Println("validated:  results match CPU reference")
	}
}

func parseApp(s string) (emogi.App, error) {
	switch strings.ToLower(s) {
	case "bfs":
		return emogi.BFS, nil
	case "sssp":
		return emogi.SSSP, nil
	case "cc":
		return emogi.CC, nil
	}
	return 0, fmt.Errorf("unknown app %q (want bfs, sssp, or cc)", s)
}

func parseVariant(s string) (emogi.Variant, error) {
	switch strings.ToLower(s) {
	case "naive":
		return emogi.Naive, nil
	case "merged":
		return emogi.Merged, nil
	case "merged+aligned", "aligned", "mergedaligned":
		return emogi.MergedAligned, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want naive, merged, or merged+aligned)", s)
}

func parsePlatform(s string, scale float64) (emogi.SystemConfig, error) {
	switch strings.ToLower(s) {
	case "v100":
		return emogi.V100PCIe3(scale), nil
	case "titanxp":
		return emogi.TitanXpPCIe3(scale), nil
	case "a100-pcie3":
		return emogi.A100PCIe3(scale), nil
	case "a100-pcie4", "a100":
		return emogi.A100PCIe4(scale), nil
	}
	return emogi.SystemConfig{}, fmt.Errorf("unknown platform %q", s)
}
