// Quickstart: load a graph that does not fit in GPU memory and traverse
// it with EMOGI's zero-copy kernels, then compare against the UVM
// baseline — the paper's headline experiment in ~40 lines.
package main

import (
	"fmt"
	"log"

	emogi "repro"
)

func main() {
	const scale = 0.25 // quarter of the standard 1:1000 reduction: quick but out-of-memory

	// Build the GAP-kron analog: a heavy-tailed graph whose edge list is
	// roughly twice the simulated V100's memory at this scale.
	g, err := emogi.BuildDataset("GK", scale, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph %s: %d vertices, %d edges (%.1f MB edge list)\n",
		g.Name, g.NumVertices(), g.NumEdges(), float64(g.EdgeListBytes(8))/1e6)

	sources := emogi.PickSources(g, 4, 1)

	// EMOGI: edge list pinned in host memory, traversed with zero-copy
	// reads merged into aligned 128-byte PCIe requests.
	sysE := emogi.NewSystem(emogi.V100PCIe3(scale))
	dgE, err := sysE.Load(g)
	if err != nil {
		log.Fatal(err)
	}
	em, err := sysE.RunMany(dgE, "bfs", sources, emogi.MergedAligned)
	if err != nil {
		log.Fatal(err)
	}

	// Baseline: the same kernel over UVM-managed memory, paying 4KB page
	// migrations on every cold touch.
	sysU := emogi.NewSystem(emogi.V100PCIe3(scale))
	dgU, err := sysU.Load(g, emogi.WithTransportPolicy(emogi.StaticPolicy(emogi.UVM)))
	if err != nil {
		log.Fatal(err)
	}
	uvm, err := sysU.RunMany(dgU, "bfs", sources, emogi.Merged)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("BFS over %d sources (simulated times):\n", len(sources))
	fmt.Printf("  UVM baseline:   %10v   %5.2f GB/s   %.2fx I/O amplification\n",
		uvm.MeanElapsed, uvm.MeanBandwidth()/1e9,
		uvm.IOAmplification(g.EdgeListBytes(8)))
	fmt.Printf("  EMOGI:          %10v   %5.2f GB/s   %.2fx I/O amplification\n",
		em.MeanElapsed, em.MeanBandwidth()/1e9,
		em.IOAmplification(g.EdgeListBytes(8)))
	fmt.Printf("  speedup: %.2fx\n", emogi.Speedup(uvm, em))
}
