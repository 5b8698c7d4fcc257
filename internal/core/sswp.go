package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// This file adds single-source widest path (SSWP, also bottleneck
// shortest path: the width of a path is its narrowest edge, and each
// vertex's result is the widest width over all paths from the source)
// as a pure Program descriptor — no engine changes. SSWP is the engine's
// max-lattice existence proof: where BFS/SSSP/CC relax with atomic-min
// toward smaller values, SSWP relaxes with atomic-max toward wider paths,
// combining a vertex's width with each edge weight by min (a path is as
// wide as its narrowest hop). Everything else — the active-set frontier,
// the snapshot policy, convergence, telemetry, result assembly — is the
// same engine machinery the other applications run on.

// sswpProgram declares single-source widest path: a max lattice whose
// unreached value is 0, min-combining edge weights into atomic-max
// relaxations. The source starts at InfDist (the empty path has no
// bottleneck).
func sswpProgram() *Program {
	return &Program{
		App:      "SSWP",
		Frontier: FrontierActive,
		Relax:    Monoid{Identity: 0, Combine: CombineMin, Max: true},
		Weighted: true,
		Init: func(v, src int) uint32 {
			if v == src {
				return graph.InfDist
			}
			return 0
		},
		Seed:     func(v, src int) bool { return v == src },
		Validate: ValidateSSWP,
	}
}

// SSWP runs single-source widest path from src. Like SSSP it iterates
// explicit-active-set relaxation rounds to a fixed point with
// round-boundary snapshots; edge weights stream from host memory.
func SSWP(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, variant Variant) (*Result, error) {
	n := dg.NumVertices()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("core: SSWP source %d out of range [0,%d)", src, n)
	}
	if dg.Weights == nil {
		return nil, fmt.Errorf("core: SSWP requires a weighted graph")
	}
	prog := sswpProgram()
	name := "sswp/" + variant.String()
	return runProgram(ctx, dev, n, prog, src, &engineConfig{
		variant:     variant,
		transport:   dg.Transport,
		graphName:   dg.Graph.Name,
		valueName:   "sswp.width",
		snapName:    "sswp.widthread",
		activeNames: [2]string{"sswp.active0", "sswp.active1"},
		roundName:   name,
		dg:          dg,
		kernel:      stdActiveKernel(dg, variant, name, prog),
	})
}

// ValidateSSWP checks an SSWP result against the widest-path Dijkstra
// reference.
func ValidateSSWP(g *graph.CSR, src int, values []uint32) error {
	want := graph.RefSSWP(g, src)
	if len(values) != len(want) {
		return fmt.Errorf("core: SSWP result length %d, want %d", len(values), len(want))
	}
	for v := range want {
		if values[v] != want[v] {
			return fmt.Errorf("core: SSWP width[%d] = %d, want %d (src %d)",
				v, values[v], want[v], src)
		}
	}
	return nil
}
