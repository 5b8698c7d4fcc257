// Socialreach analyzes degrees of separation in a Friendster-like social
// network — one of the workloads the paper's introduction motivates
// (social network analysis on graphs larger than GPU memory).
//
// It runs EMOGI BFS from a handful of seed users and reports how much of
// the network is reachable within k hops, plus the traversal's PCIe
// behaviour on the simulated V100.
package main

import (
	"context"
	"fmt"
	"log"

	emogi "repro"
)

func main() {
	const scale = 0.25

	g, err := emogi.BuildDataset("FS", scale, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social network: %d users, %d friendships (avg %.1f friends)\n\n",
		g.NumVertices(), g.NumEdges()/2, g.AvgDegree())

	sys := emogi.NewSystem(emogi.V100PCIe3(scale))
	dg, err := sys.Load(g)
	if err != nil {
		log.Fatal(err)
	}

	seeds := emogi.PickSources(g, 3, 99)
	for _, seed := range seeds {
		res, err := sys.Do(context.Background(),
			emogi.Request{Graph: dg, Algo: "bfs", Src: seed, Variant: emogi.MergedAligned})
		if err != nil {
			log.Fatal(err)
		}
		if err := emogi.Validate(g, res); err != nil {
			log.Fatalf("BFS result failed validation: %v", err)
		}

		// Degrees-of-separation histogram.
		const maxHops = 8
		var byHop [maxHops + 1]int
		reached := 0
		for _, level := range res.Values {
			if level == ^uint32(0) {
				continue
			}
			reached++
			if level < maxHops {
				byHop[level]++
			} else {
				byHop[maxHops]++
			}
		}
		fmt.Printf("seed user %d: reached %d/%d users in %d rounds (%v simulated)\n",
			seed, reached, g.NumVertices(), res.Iterations, res.Elapsed)
		cum := 0
		for hop, n := range byHop {
			if n == 0 {
				continue
			}
			cum += n
			label := fmt.Sprintf("%d hops", hop)
			if hop == maxHops {
				label = "8+ hops"
			}
			fmt.Printf("  within %-7s %8d users (%.1f%%)\n",
				label, cum, 100*float64(cum)/float64(g.NumVertices()))
		}
		fmt.Println()
	}

	mon := sys.Device().Monitor().Snapshot()
	fmt.Printf("PCIe traffic across all traversals: %d requests, %.1f MB payload, %.1f%% at 128B\n",
		mon.Requests, float64(mon.PayloadBytes)/1e6,
		100*float64(mon.BySize[128])/float64(mon.Requests))
}
