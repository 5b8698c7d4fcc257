package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
)

// This file implements two studies around EMOGI's fixed warp-per-vertex
// worker choice, both as kernel configurations of the frontier engine's
// BFS program:
//
//   - BFSWithWorker generalizes the merged kernel to sub-warp workers of
//     4..32 lanes, the design §4.3.1 argues *against* for out-of-memory
//     traversal ("fine-tuning and reducing the worker size cannot add any
//     additional benefit... making smaller memory requests can have an
//     adverse effect"). The ablation harness uses it to regenerate that
//     argument as data.
//
//   - BFSBalanced adds the workload balancing the paper's §6 defers to
//     prior schemes [38, 39]: neighbor lists longer than a threshold are
//     split across virtual workers, which shortens the latency-bound
//     critical path of hub vertices without changing the traffic.

// BFSWithWorker runs BFS with a worker of the given lane count per vertex
// (4, 8, 16, or 32; 32 equals the Merged/MergedAligned variants). Each
// warp processes 32/workerLanes vertices concurrently, so a worker's
// maximum coalesced request is workerLanes*elemBytes bytes.
func BFSWithWorker(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, workerLanes int, aligned bool) (*Result, error) {
	switch workerLanes {
	case 4, 8, 16, 32:
	default:
		return nil, fmt.Errorf("core: worker size %d not in {4, 8, 16, 32}", workerLanes)
	}
	n := dg.NumVertices()
	prog := bfsProgram()
	variant := Merged
	if aligned {
		variant = MergedAligned
	}
	groups := gpu.WarpSize / workerLanes
	warps := (n + groups - 1) / groups
	name := fmt.Sprintf("bfs/worker%d", workerLanes)
	labelVariant := fmt.Sprintf("worker%d", workerLanes)
	if !aligned {
		labelVariant += "-unaligned"
	}
	kernel := func(r *engineRound) {
		level, labels, visit := r.level, r.values, r.visit
		r.dev.Launch(name, warps, func(w *gpu.Warp) {
			vbase := int64(w.ID()) * int64(groups)
			// Group leaders read the labels of their vertices.
			var lidx [gpu.WarpSize]int64
			lmask := gpu.MaskNone
			for g := 0; g < groups; g++ {
				if v := vbase + int64(g); v < int64(n) {
					lidx[g] = v
					lmask = lmask.Set(g)
				}
			}
			labs := w.GatherU32(labels, &lidx, lmask)
			activeGroups := make([]bool, groups)
			any := false
			for g := 0; g < groups; g++ {
				if lmask.Has(g) && labs[g] == level {
					activeGroups[g] = true
					any = true
				}
			}
			if !any {
				return
			}
			walkGrouped(w, dg, vbase, groups, workerLanes, activeGroups, prog.push(level), aligned, visit)
		})
	}
	return runProgram(ctx, dev, n, prog, src, &engineConfig{
		variant:      variant,
		transport:    dg.Transport,
		graphName:    dg.Graph.Name,
		labelVariant: labelVariant,
		valueName:    "bfs.labels",
		roundName:    name,
		dg:           dg,
		kernel:       kernel,
	})
}

// walkGrouped traverses up to `groups` neighbor lists with one warp, each
// list owned by a sub-group of workerLanes lanes striding through it in
// lock step. Every group's gather lands in the same warp access, so the
// coalescer merges exactly what real sub-warp workers would merge.
func walkGrouped(w *gpu.Warp, dg *DeviceGraph, vbase int64, groups, workerLanes int,
	activeGroups []bool, pushVal uint32, aligned bool, visit visitFn) {

	type span struct {
		cur, orig, end int64
	}
	spans := make([]span, groups)
	maxIters := int64(0)
	elemsPerLine := dg.ElemsPerCacheLine()
	for g := 0; g < groups; g++ {
		if !activeGroups[g] {
			continue
		}
		start, end := w.PairU64(dg.Offsets, vbase+int64(g))
		first := int64(start)
		if aligned {
			first &^= elemsPerLine - 1
		}
		spans[g] = span{cur: first, orig: int64(start), end: int64(end)}
		if iters := (int64(end) - first + int64(workerLanes) - 1) / int64(workerLanes); iters > maxIters {
			maxIters = iters
		}
	}
	var srcArr, wgt [gpu.WarpSize]uint32
	for l := range srcArr {
		srcArr[l] = pushVal
	}
	for it := int64(0); it < maxIters; it++ {
		var idx [gpu.WarpSize]int64
		mask := gpu.MaskNone
		for g := 0; g < groups; g++ {
			if !activeGroups[g] {
				continue
			}
			s := &spans[g]
			if s.cur >= s.end {
				continue
			}
			for l := 0; l < workerLanes; l++ {
				j := s.cur + int64(l)
				if j >= s.orig && j < s.end {
					lane := g*workerLanes + l
					idx[lane] = j
					mask = mask.Set(lane)
				}
			}
			s.cur += int64(workerLanes)
		}
		w.Instr(2)
		if mask == gpu.MaskNone {
			continue
		}
		dst := gatherEdges(w, dg, &idx, mask)
		visit(w, mask, &dst, &wgt, &srcArr)
	}
}

// BFSBalanced runs the fully-optimized (merged + aligned) BFS with
// workload balancing: lists longer than splitLen elements are handled by
// multiple virtual workers, bounding any single worker's latency-critical
// path at splitLen elements. Traffic is identical to MergedAligned; only
// the critical-path attribution changes.
func BFSBalanced(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, src int, splitLen int64) (*Result, error) {
	n := dg.NumVertices()
	if src < 0 || src >= n {
		return nil, fmt.Errorf("core: BFS source %d out of range [0,%d)", src, n)
	}
	if splitLen < gpu.WarpSize {
		return nil, fmt.Errorf("core: split length %d below warp size", splitLen)
	}
	prog := bfsProgram()
	kernel := func(r *engineRound) {
		level, labels, visit := r.level, r.values, r.visit
		r.dev.Launch("bfs/balanced", n, func(w *gpu.Warp) {
			v := int64(w.ID())
			if w.ScalarU32(labels, v) != level {
				return
			}
			walkMergedBalanced(w, dg, v, prog.push(level), splitLen, visit)
		})
	}
	return runProgram(ctx, dev, n, prog, src, &engineConfig{
		variant:      MergedAligned,
		transport:    dg.Transport,
		graphName:    dg.Graph.Name,
		labelVariant: "balanced",
		valueName:    "bfs.labels",
		roundName:    "bfs/balanced",
		dg:           dg,
		kernel:       kernel,
	})
}

// walkMergedBalanced is walkMerged with aligned starts and a virtual-warp
// boundary every splitLen elements.
func walkMergedBalanced(w *gpu.Warp, dg *DeviceGraph, v int64, srcVal uint32, splitLen int64, visit visitFn) {
	start, end := w.PairU64(dg.Offsets, v)
	if start >= end {
		return
	}
	first := int64(start) &^ (dg.ElemsPerCacheLine() - 1)
	var srcArr, wgt [gpu.WarpSize]uint32
	for l := range srcArr {
		srcArr[l] = srcVal
	}
	sinceSplit := int64(0)
	var dst [gpu.WarpSize]uint32
	for i := first; i < int64(end); i += gpu.WarpSize {
		lo := int(max(int64(start)-i, 0))
		hi := int(min(int64(end)-i, gpu.WarpSize))
		w.Instr(2)
		if lo >= hi {
			continue
		}
		w.GatherRange(dg.Edges, dg.EdgeBytes, i, lo, hi, &dst)
		visit(w, gpu.MaskFirstN(hi)&^gpu.MaskFirstN(lo), &dst, &wgt, &srcArr)
		sinceSplit += gpu.WarpSize
		if sinceSplit >= splitLen {
			w.SplitWorker()
			sinceSplit = 0
		}
	}
}
