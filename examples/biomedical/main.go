// Biomedical runs connected-components over a MOLIERE_2016-like dense
// biomedical hypothesis graph (the paper's ML dataset: ~222 neighbors per
// entity), the kind of graph where UVM's 4KB pages look efficient — and
// shows EMOGI still wins, just by less (§5.4: CC shows the paper's lowest
// speedups because streaming the whole edge list has spatial locality).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	emogi "repro"
)

func main() {
	const scale = 0.2

	g, err := emogi.BuildDataset("ML", scale, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("biomedical graph: %d entities, %d associations (avg degree %.0f)\n\n",
		g.NumVertices(), g.NumEdges(), g.AvgDegree())

	run := func(name string, transport emogi.Transport, variant emogi.Variant) *emogi.Result {
		sys := emogi.NewSystem(emogi.V100PCIe3(scale))
		dg, err := sys.Load(g, emogi.WithTransportPolicy(emogi.StaticPolicy(transport)))
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Do(context.Background(),
			emogi.Request{Graph: dg, Algo: "cc", Variant: variant})
		if err != nil {
			log.Fatal(err)
		}
		if err := emogi.Validate(g, res); err != nil {
			log.Fatalf("%s produced wrong components: %v", name, err)
		}
		fmt.Printf("%-14s %10v simulated, %6.1f MB moved over PCIe\n",
			name+":", res.Elapsed, float64(res.Stats.PCIePayloadBytes)/1e6)
		return res
	}

	uvm := run("UVM baseline", emogi.UVM, emogi.Merged)
	em := run("EMOGI", emogi.ZeroCopy, emogi.MergedAligned)
	fmt.Printf("speedup: %.2fx (the paper's CC speedups are its lowest — dense\n", //
		float64(uvm.Elapsed)/float64(em.Elapsed))
	fmt.Println("streaming gives UVM pages good locality, §5.4)")

	// Component census from the validated labels.
	sizes := map[uint32]int{}
	for _, label := range em.Values {
		sizes[label]++
	}
	type comp struct {
		label uint32
		n     int
	}
	comps := make([]comp, 0, len(sizes))
	for l, n := range sizes {
		comps = append(comps, comp{l, n})
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].n > comps[j].n })
	fmt.Printf("\n%d connected components; largest:\n", len(comps))
	for i, c := range comps {
		if i == 5 {
			break
		}
		fmt.Printf("  component %-8d %8d entities (%.1f%%)\n",
			c.label, c.n, 100*float64(c.n)/float64(g.NumVertices()))
	}
}
