package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// ssspProgram declares single-source shortest path: a min-lattice monoid
// adding the edge weight, over an explicit active set with round-boundary
// snapshots (the frontier-based Bellman-Ford relaxation of [28, 37] the
// paper builds on).
func ssspProgram() *Program {
	return &Program{
		App:      "SSSP",
		Frontier: FrontierActive,
		Relax:    Monoid{Identity: graph.InfDist, Combine: CombineAdd},
		Weighted: true,
		Init: func(v, src int) uint32 {
			if v == src {
				return 0
			}
			return graph.InfDist
		},
		Seed:     func(v, src int) bool { return v == src },
		Validate: ValidateSSSP,
	}
}

// SSSP runs single-source shortest path from src: each iteration, every
// vertex whose distance improved last round relaxes its outgoing edges;
// the run converges when no distance changes. Edge weights stream from
// host memory alongside the destinations.
//
// Relaxations are bulk-synchronous (Jacobi): each round, active vertices
// read their distance from a device-side snapshot taken at the round
// boundary while atomic-min updates land in the live array — the same
// racy-read/atomic-write structure a real GPU kernel has, with the
// snapshot making the reads independent of warp execution order so runs
// are bit-for-bit reproducible under the parallel launch engine (the
// engine's FrontierActive policy). Intra-round chaining (a warp reusing a
// distance another warp lowered moments earlier) is given up; the fixed
// point is identical, reached in a few more launches.
func SSSP(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, variant Variant) (*Result, error) {
	n := dg.NumVertices()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("core: SSSP source %d out of range [0,%d)", src, n)
	}
	if dg.Weights == nil {
		return nil, fmt.Errorf("core: SSSP requires a weighted graph")
	}
	prog := ssspProgram()
	name := "sssp/" + variant.String()
	return runProgram(ctx, dev, n, prog, src, &engineConfig{
		variant:     variant,
		transport:   dg.Transport,
		graphName:   dg.Graph.Name,
		valueName:   "sssp.dist",
		snapName:    "sssp.distread",
		activeNames: [2]string{"sssp.active0", "sssp.active1"},
		roundName:   name,
		dg:          dg,
		kernel:      stdActiveKernel(dg, variant, name, prog),
	})
}

// ValidateSSSP checks an SSSP result against the Dijkstra reference.
func ValidateSSSP(g *graph.CSR, src int, values []uint32) error {
	want := graph.RefSSSP(g, src)
	if len(values) != len(want) {
		return fmt.Errorf("core: SSSP result length %d, want %d", len(values), len(want))
	}
	for v := range want {
		if values[v] != want[v] {
			return fmt.Errorf("core: SSSP dist[%d] = %d, want %d (src %d)",
				v, values[v], want[v], src)
		}
	}
	return nil
}
