package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
)

// This file implements direction-optimized BFS (Beamer-style push/pull) on
// top of EMOGI's zero-copy transport — an example of §6's point that
// "several graph traversal specific optimizations... can be added" on top
// of the memory-access contribution. It is the frontier engine's BFS
// program with a direction-switching kernel: the engine still owns the
// round loop; only the per-round launch choice is custom.
//
// Push levels are the paper's merged+aligned scatter. Pull levels invert
// the work: every *unvisited* vertex scans its own neighbor list looking
// for any parent on the current frontier and stops at the first hit. When
// the frontier is a large fraction of the graph (the middle levels of
// social and uniform graphs), the early exit makes pull read far fewer
// edge bytes than push would.
//
// Pull requires the in-edges of a vertex, so it is limited to undirected
// graphs (where out-lists serve), exactly like real direction-optimized
// implementations that run on the symmetrized graph.

// PushPullConfig controls the direction heuristic.
type PushPullConfig struct {
	// PullThreshold switches to pull when the next frontier exceeds this
	// fraction of the vertex set. Beamer's heuristic uses edge counts; the
	// vertex fraction is the simple, robust variant.
	PullThreshold float64
}

// DefaultPushPullConfig returns the standard heuristic.
func DefaultPushPullConfig() PushPullConfig {
	return PushPullConfig{PullThreshold: 0.10}
}

// BFSDirectionOptimized runs push/pull BFS from src over zero-copy memory.
// It returns the same levels as plain BFS; only the traffic differs.
func BFSDirectionOptimized(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, cfg PushPullConfig) (*Result, error) {
	g := dg.Graph
	if g.Directed {
		return nil, fmt.Errorf("core: direction-optimized BFS requires an undirected graph")
	}
	n := dg.NumVertices()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("core: BFS source %d out of range [0,%d)", src, n)
	}
	if cfg.PullThreshold <= 0 {
		cfg = DefaultPushPullConfig()
	}
	prog := bfsProgram()
	frontier := 1
	push := stdMatchKernel(dg, MergedAligned, "bfs/push", prog)
	kernel := func(r *engineRound) {
		pull := float64(frontier) > cfg.PullThreshold*float64(n)
		if pull {
			launchPullKernel(r.dev, dg, r.values, r.flag, r.level)
		} else {
			push(r)
		}
	}
	// The next frontier size steers the heuristic. Real implementations
	// keep this count on-device; its readback rides the flag transfer.
	postRound := func(r *engineRound, more bool) {
		if !more {
			return
		}
		frontier = 0
		for v := 0; v < n; v++ {
			if r.values.U32(int64(v)) == r.level+1 {
				frontier++
			}
		}
	}
	// Which levels ran bottom-up is visible to a telemetry sink's
	// KernelDone ("bfs/pull" vs "bfs/push" launches).
	return runProgram(ctx, dev, n, prog, src, &engineConfig{
		variant:      MergedAligned,
		transport:    dg.Transport,
		graphName:    g.Name,
		labelVariant: "pushpull",
		valueName:    "dobfs.labels",
		roundName:    "bfs/pushpull",
		dg:           dg,
		kernel:       kernel,
		postRound:    postRound,
	})
}

// launchPullKernel runs one bottom-up level: every unvisited vertex scans
// its list (merged+aligned) for a neighbor at the current level and claims
// level+1 on the first hit — the early exit is where pull saves bytes.
func launchPullKernel(dev *gpu.Device, dg *DeviceGraph, labels, flag *memsys.Buffer, level uint32) {
	n := dg.NumVertices()
	elemsPerLine := dg.ElemsPerCacheLine()
	dev.Launch("bfs/pull", n, func(w *gpu.Warp) {
		v := int64(w.ID())
		if w.ScalarU32(labels, v) != graph.InfDist {
			return
		}
		start, end := w.PairU64(dg.Offsets, v)
		if start >= end {
			return
		}
		first := int64(start) &^ (elemsPerLine - 1)
		var dst [gpu.WarpSize]uint32
		for i := first; i < int64(end); i += gpu.WarpSize {
			// Lane l reads element i+l when it lies in [start, end).
			lo := int(max(int64(start)-i, 0))
			hi := int(min(int64(end)-i, gpu.WarpSize))
			w.Instr(2)
			if lo >= hi {
				continue
			}
			w.GatherRange(dg.Edges, dg.EdgeBytes, i, lo, hi, &dst)
			var labIdx [gpu.WarpSize]int64
			for l := lo; l < hi; l++ {
				labIdx[l] = int64(dst[l])
			}
			labs := w.GatherU32(labels, &labIdx, gpu.MaskFirstN(hi)&^gpu.MaskFirstN(lo))
			for l := lo; l < hi; l++ {
				if labs[l] == level {
					// Found a frontier parent: claim and stop scanning.
					w.StoreScalarU32(labels, v, level+1)
					w.StoreScalarU32(flag, 0, 1)
					return
				}
			}
		}
	})
}
