// Webroutes computes weighted shortest paths over a uk-2007-like web
// crawl: edge weights model per-link fetch latencies and SSSP finds the
// cheapest click-path from a portal page to every other page.
//
// It contrasts all three kernel variants on the same workload, showing the
// merge and alignment optimizations as a user of the library would apply
// them (§4.3: "package the proposed optimizations into a library").
package main

import (
	"context"
	"fmt"
	"log"

	emogi "repro"
)

func main() {
	const scale = 0.2

	g, err := emogi.BuildDataset("UK5", scale, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("web crawl: %d pages, %d links, weights = per-link latency in ms\n\n",
		g.NumVertices(), g.NumEdges())

	portal := emogi.PickSources(g, 1, 3)[0]

	for _, variant := range []emogi.Variant{emogi.Naive, emogi.Merged, emogi.MergedAligned} {
		sys := emogi.NewSystem(emogi.V100PCIe3(scale))
		dg, err := sys.Load(g)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Do(context.Background(),
			emogi.Request{Graph: dg, Algo: "sssp", Src: portal, Variant: variant})
		if err != nil {
			log.Fatal(err)
		}
		if err := emogi.Validate(g, res); err != nil {
			log.Fatalf("%s: wrong distances: %v", variant, err)
		}

		reachable, total := 0, uint64(0)
		var worst uint32
		for _, d := range res.Values {
			if d == ^uint32(0) {
				continue
			}
			reachable++
			total += uint64(d)
			if d > worst {
				worst = d
			}
		}
		mon := sys.Device().Monitor().Snapshot()
		fmt.Printf("%-15s %10v simulated, %6.2f GB/s PCIe, %9d requests\n",
			variant.String()+":", res.Elapsed,
			float64(res.Stats.PCIePayloadBytes)/res.Stats.Elapsed.Seconds()/1e9,
			mon.Requests)
		if variant == emogi.MergedAligned {
			fmt.Printf("\nfrom portal page %d: %d pages reachable, mean path cost %.0f ms, max %d ms\n",
				portal, reachable, float64(total)/float64(reachable), worst)
		}
	}
}
