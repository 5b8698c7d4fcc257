// Command emogi runs one graph traversal on the simulated system and
// reports its simulated time and PCIe traffic, e.g.:
//
//	emogi -graph GK -algo bfs -variant merged+aligned -transport static-zc
//	emogi -graph SK -algo sssp -transport static-uvm -sources 8
//	emogi -graph GK -algo bfs -transport adaptive
//	emogi -file mygraph.csr -algo cc
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
		algo      = flag.String("algo", "bfs", "algorithm registry name (\"list\" prints all)")
		variant   = flag.String("variant", "merged+aligned",
			"kernel variant: naive, merged, merged+aligned")
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
		kernels  = flag.Bool("kernels", false, "print the per-kernel (per-level) breakdown of every run")
		reorder  = flag.Int("reorder-window", 0,
			"IARU-style reorder window in 32B sectors (0 disables; >0 buffers off-device accesses and re-groups them by 128B line before dispatch)")
		compare = flag.Bool("compare", false, "run the UVM baseline alongside and print the speedup")
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

	algoName := strings.ToLower(*algo)
	v, err := emogi.ParseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := emogi.PolicyByName(*transport)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := emogi.ParsePlatform(*platform, *scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg, err = emogi.ApplyTierStack(cfg, *tiers)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.GPU.GPUDrivenPaging, err = emogi.ParsePaging(*paging); err != nil {
		log.Fatal(err)
	}
	place, err := emogi.ParsePlacement(*placement)
	if err != nil {
		log.Fatal(err)
	}
	cfg.GPU.ReorderWindow = *reorder

	sys := emogi.NewSystem(cfg)
	var klog kernelLog
	if *kernels {
		sys.Device().SetTelemetry(&klog)
	}
	dg, err := sys.Load(g, emogi.WithTransportPolicy(pol), emogi.WithElemBytes(*elemBytes),
		emogi.WithPlacement(place))
	if err != nil {
		log.Fatalf("loading graph onto device: %v", err)
	}
	srcs := emogi.PickSources(g, *sources, *seed)
	if srcs == nil {
		log.Fatal("graph has no vertices with outgoing edges")
	}

	sum, err := sys.RunMany(dg, algoName, srcs, v)
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
	if algoName == "bfs-compressed" {
		// The run builds and frees its compressed stream internally, so
		// measure the compression on a scratch device.
		cdg, err := core.UploadCompressed(gpu.NewDevice(cfg.GPU), g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compression: %.1f MB -> %.1f MB (%.2fx)\n",
			float64(cdg.PlainBytes)/1e6, float64(cdg.CompressedBytes)/1e6, cdg.Ratio())
	}
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
		uvmSum, err := sysU.RunMany(dgU, algoName, srcs, emogi.Merged)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("baseline:   UVM %v -> speedup %.2fx\n",
			uvmSum.MeanElapsed, emogi.Speedup(uvmSum, sum))
	}
	if *kernels {
		klog.print()
	}
	os.Exit(0)
}

// kernelLog is a telemetry sink that keeps every kernel launch's
// statistics, for -kernels: the level-by-level view of how traffic and
// time evolve over a traversal.
type kernelLog struct{ kernels []gpu.KernelStats }

func (l *kernelLog) KernelDone(_ *gpu.Device, ks *gpu.KernelStats, _, _ int, _, _ time.Duration) {
	l.kernels = append(l.kernels, *ks)
}

func (*kernelLog) RunBegin(*gpu.Device, gpu.RunLabels)                              {}
func (*kernelLog) RunEnd(*gpu.Device)                                               {}
func (*kernelLog) CopyDone(*gpu.Device, bool, int64, time.Duration, time.Duration)  {}
func (*kernelLog) RoundDone(*gpu.Device, string, int, time.Duration, time.Duration) {}

func (l *kernelLog) print() {
	fmt.Println("\nper-kernel breakdown (all runs):")
	fmt.Printf("%-28s %8s %10s %12s %12s %10s\n",
		"kernel", "warps", "PCIe reqs", "payload KB", "migrations", "elapsed")
	for _, ks := range l.kernels {
		fmt.Printf("%-28s %8d %10d %12.1f %12d %10v\n",
			ks.Name, ks.Warps, ks.PCIeRequests,
			float64(ks.PCIePayloadBytes)/1e3, ks.UVMMigrations, ks.Elapsed)
	}
}
