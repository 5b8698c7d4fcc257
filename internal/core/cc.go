package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// ccProgram declares connected components by iterative min-label
// propagation (the GARDENIA-style baseline [51] the paper starts from):
// every vertex begins as its own component with the whole vertex set
// active — "all vertices are set as root vertices and the entire edge list
// is traversed" (§5.4) — and pushes its label to its neighbors until a
// fixed point. The final label of each vertex is the minimum vertex ID in
// its component. Identity is graph.InfDist for the active-kernel
// unreached-vertex guard; labels are vertex IDs, so the guard never trips.
func ccProgram() *Program {
	return &Program{
		App:      "CC",
		Frontier: FrontierActive,
		Relax:    Monoid{Identity: graph.InfDist, Combine: CombineCarry},
		NoSource: true,
		Init:     func(v, src int) uint32 { return uint32(v) },
		Seed:     func(v, src int) bool { return true },
		Validate: func(g *graph.CSR, _ int, values []uint32) error {
			return ValidateCC(g, values)
		},
	}
}

// CC computes connected components over the frontier engine's explicit
// active set. Like SSSP, propagation is bulk-synchronous: active vertices
// read their label from a round-boundary snapshot while atomic-min
// updates land in the live array, which keeps runs bit-for-bit
// reproducible under the parallel launch engine (see the SSSP comment).
//
// The graph must be undirected; the paper excludes the directed SK and
// UK5 graphs from CC for the same reason.
func CC(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, variant Variant) (*Result, error) {
	if dg.Graph.Directed {
		return nil, fmt.Errorf("core: CC requires an undirected graph (got %s)", dg.Graph.Name)
	}
	prog := ccProgram()
	name := "cc/" + variant.String()
	return runProgram(ctx, dev, dg.NumVertices(), prog, 0, &engineConfig{
		variant:     variant,
		transport:   dg.Transport,
		graphName:   dg.Graph.Name,
		valueName:   "cc.comp",
		snapName:    "cc.compread",
		activeNames: [2]string{"cc.active0", "cc.active1"},
		roundName:   name,
		dg:          dg,
		kernel:      stdActiveKernel(dg, variant, name, prog),
	})
}

// ValidateCC checks a CC result against the union-find reference.
func ValidateCC(g *graph.CSR, values []uint32) error {
	want := graph.RefCC(g)
	if len(values) != len(want) {
		return fmt.Errorf("core: CC result length %d, want %d", len(values), len(want))
	}
	for v := range want {
		if values[v] != want[v] {
			return fmt.Errorf("core: CC label[%d] = %d, want %d", v, values[v], want[v])
		}
	}
	return nil
}
