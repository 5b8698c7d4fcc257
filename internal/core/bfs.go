package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// bfsProgram declares breadth-first search over the frontier engine: a
// min-lattice carry monoid over an implicit match-by-level frontier, with
// active vertices pushing level+1 to their neighbors.
func bfsProgram() *Program {
	return &Program{
		App:      "BFS",
		Frontier: FrontierMatch,
		Relax:    Monoid{Identity: graph.InfDist, Combine: CombineCarry},
		Init: func(v, src int) uint32 {
			if v == src {
				return 0
			}
			return graph.InfDist
		},
		Push:     func(sv uint32) uint32 { return sv + 1 },
		Validate: ValidateBFS,
	}
}

// BFS runs level-synchronous breadth-first search from src on the device
// graph, one kernel launch per level (§4.2: "the total number of kernels
// launched... is equal to the distance between the source vertex to the
// furthest reachable vertex"). It returns each vertex's BFS level
// (graph.InfDist for unreachable vertices). When ctx is canceled or its
// deadline passes, the run stops at the next round boundary and returns a
// *CanceledError (see cancel.go for the contract); every traversal in this
// package takes ctx first and honors it the same way.
func BFS(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, variant Variant) (*Result, error) {
	prog := bfsProgram()
	name := "bfs/" + variant.String()
	return runProgram(ctx, dev, dg.NumVertices(), prog, src, &engineConfig{
		variant:   variant,
		transport: dg.Transport,
		graphName: dg.Graph.Name,
		valueName: "bfs.labels",
		roundName: name,
		dg:        dg,
		kernel:    stdMatchKernel(dg, variant, name, prog),
	})
}

// ValidateBFS checks a BFS result against the CPU reference.
func ValidateBFS(g *graph.CSR, src int, values []uint32) error {
	want := graph.RefBFS(g, src)
	if len(values) != len(want) {
		return fmt.Errorf("core: BFS result length %d, want %d", len(values), len(want))
	}
	for v := range want {
		if values[v] != want[v] {
			return fmt.Errorf("core: BFS level[%d] = %d, want %d (src %d)",
				v, values[v], want[v], src)
		}
	}
	return nil
}
