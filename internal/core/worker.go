package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
)

// This file implements a study around EMOGI's fixed warp-per-vertex
// worker choice as a kernel configuration of the frontier engine's BFS
// program: BFSWithWorker generalizes the merged kernel to sub-warp workers
// of 4..32 lanes, the design §4.3.1 argues *against* for out-of-memory
// traversal ("fine-tuning and reducing the worker size cannot add any
// additional benefit... making smaller memory requests can have an
// adverse effect"). The ablation harness uses it to regenerate that
// argument as data.

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
	kernel := launchKernel(name, warps, func(r *engineRound, w *gpu.Warp) {
		level, labels, visit := r.level, r.values, r.visit
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
		var activeGroups [gpu.WarpSize]bool
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
		walkGrouped(w, dg, vbase, groups, workerLanes, &activeGroups, prog.push(level), aligned, visit)
	})
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
	activeGroups *[gpu.WarpSize]bool, pushVal uint32, aligned bool, visit visitFn) {

	type span struct {
		cur, orig, end int64
	}
	var spans [gpu.WarpSize]span
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
	s := scratchOf(w)
	s.wgt = [gpu.WarpSize]uint32{}
	for l := range s.src {
		s.src[l] = pushVal
	}
	for it := int64(0); it < maxIters; it++ {
		var idx [gpu.WarpSize]int64
		mask := gpu.MaskNone
		for g := 0; g < groups; g++ {
			if !activeGroups[g] {
				continue
			}
			sp := &spans[g]
			if sp.cur >= sp.end {
				continue
			}
			for l := 0; l < workerLanes; l++ {
				j := sp.cur + int64(l)
				if j >= sp.orig && j < sp.end {
					lane := g*workerLanes + l
					idx[lane] = j
					mask = mask.Set(lane)
				}
			}
			sp.cur += int64(workerLanes)
		}
		w.Instr(2)
		if mask == gpu.MaskNone {
			continue
		}
		s.dst = gatherEdges(w, dg, &idx, mask)
		visit(w, mask, &s.dst, &s.wgt, &s.src)
	}
}
