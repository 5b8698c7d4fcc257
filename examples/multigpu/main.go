// Multigpu demonstrates the §7 future-work extension: several simulated
// GPUs, each with its own PCIe link to host memory, traverse one
// out-of-memory graph cooperatively. Vertices are partitioned by balanced
// edge count; value replicas are min-reduced between levels.
package main

import (
	"context"
	"fmt"
	"log"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/gpu"
)

func main() {
	const scale = 0.25

	g, err := emogi.BuildDataset("GU", scale, 21)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph %s: %d vertices, %d edges (%.1f MB edge list in host memory)\n\n",
		g.Name, g.NumVertices(), g.NumEdges(), float64(g.EdgeListBytes(8))/1e6)

	src := emogi.PickSources(g, 1, 4)[0]
	var base float64
	for _, n := range []int{1, 2, 4} {
		devs := make([]*gpu.Device, n)
		for i := range devs {
			devs[i] = gpu.NewDevice(emogi.V100PCIe3(scale).GPU)
		}
		ms, err := core.NewMultiSystem(devs, g, 8)
		if err != nil {
			log.Fatal(err)
		}
		res, err := ms.BFS(context.Background(), src)
		if err != nil {
			log.Fatal(err)
		}
		if err := emogi.Validate(g, res); err != nil {
			log.Fatalf("%d GPUs produced wrong levels: %v", n, err)
		}
		ms.Free()

		t := res.Elapsed.Seconds() * 1e3
		if n == 1 {
			base = t
		}
		fmt.Printf("%d GPU(s): %7.2f ms simulated   speedup %.2fx   %6.1f MB over all links\n",
			n, t, base/t, float64(res.Stats.PCIePayloadBytes)/1e6)
		if n > 1 {
			lo, hi := ms.Partition(0)
			fmt.Printf("          partition 0 owns vertices [%d, %d)\n", lo, hi)
		}
	}
	fmt.Println("\nscaling is sub-linear: each level pays a replica min-reduce that")
	fmt.Println("grows with device count — the coordination cost §7 leaves open.")
}
