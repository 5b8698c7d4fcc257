package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
)

// This file implements the edge-centric traversal method the paper's §2.1
// background contrasts with its chosen vertex-centric scatter ("graph
// traversals can be largely divided into a vertex-centric method and an
// edge-centric method [44]"). An edge-centric engine streams the *entire*
// edge array every iteration and relaxes the edges whose source is active;
// it needs a parallel source array (COO layout) since CSR's edge list
// doesn't carry sources.
//
// The trade is exactly why EMOGI is vertex-centric: edge-centric streaming
// is perfectly sequential (ideal 128B requests with no alignment work at
// all) but must touch |E| edges per iteration regardless of frontier size,
// so on high-diameter or narrow-frontier traversals it moves far more
// bytes. The edge-centric ablation quantifies this.

// EdgeCentricGraph is a graph in COO layout: parallel src/dst arrays in
// pinned host memory.
type EdgeCentricGraph struct {
	Graph *graph.CSR
	Src   *memsys.Buffer // 4-byte source IDs
	Dst   *memsys.Buffer // 4-byte destination IDs
}

// UploadEdgeCentric lays g out in COO form for edge-centric streaming.
// Both arrays are 4-byte (edge-centric engines favor compact layouts since
// they re-stream everything each round).
func UploadEdgeCentric(dev *gpu.Device, g *graph.CSR) (*EdgeCentricGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: refusing to upload invalid graph: %w", err)
	}
	arena := dev.Arena()
	e := g.NumEdges()
	src, err := arena.Alloc(g.Name+".coosrc", memsys.SpaceHostPinned, e*4, memsys.WithElem(4))
	if err != nil {
		return nil, fmt.Errorf("core: allocating COO sources: %w", err)
	}
	dst, err := arena.Alloc(g.Name+".coodst", memsys.SpaceHostPinned, e*4, memsys.WithElem(4))
	if err != nil {
		return nil, fmt.Errorf("core: allocating COO destinations: %w", err)
	}
	i := int64(0)
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			src.PutU32(i, uint32(v))
			dst.PutU32(i, u)
			i++
		}
	}
	dev.ResetUVMResidency()
	return &EdgeCentricGraph{Graph: g, Src: src, Dst: dst}, nil
}

// Free releases the COO buffers.
func (ec *EdgeCentricGraph) Free(dev *gpu.Device) {
	arena := dev.Arena()
	arena.Free(ec.Src)
	arena.Free(ec.Dst)
	dev.ResetUVMResidency()
}

// BFSEdgeCentric runs breadth-first search by streaming the full COO edge
// array every level: each warp reads 32 consecutive (src, dst) pairs —
// perfectly coalesced 128-byte requests with no alignment logic — and
// relaxes the edges whose source carries the current level.
func BFSEdgeCentric(ctx context.Context, dev *gpu.Device, ec *EdgeCentricGraph, src int) (*Result, error) {
	g := ec.Graph
	n := g.NumVertices()
	e := g.NumEdges()
	warps := int((e + gpu.WarpSize - 1) / gpu.WarpSize)
	prog := bfsProgram()
	kernel := launchKernel("bfs/edgecentric", warps, func(r *engineRound, w *gpu.Warp) {
		level, labels, visit := r.level, r.values, r.visit
		// Lanes 0..hi-1 hold edges base … base+hi-1.
		base := int64(w.ID()) * gpu.WarpSize
		hi := int(min(e-base, gpu.WarpSize))
		if hi <= 0 {
			return
		}
		// Stream the source column; lanes whose edge source is at the
		// current level relax the destination column.
		var srcs [gpu.WarpSize]uint32
		w.GatherRange(ec.Src, 4, base, 0, hi, &srcs)
		var srcLabIdx [gpu.WarpSize]int64
		for l := 0; l < hi; l++ {
			srcLabIdx[l] = int64(srcs[l])
		}
		labs := w.GatherU32(labels, &srcLabIdx, gpu.MaskFirstN(hi))
		active := gpu.MaskNone
		for l := 0; l < hi; l++ {
			if labs[l] == level {
				active = active.Set(l)
			}
		}
		if active == gpu.MaskNone {
			return
		}
		var idx [gpu.WarpSize]int64
		for l := range idx {
			idx[l] = base + int64(l)
		}
		s := scratchOf(w)
		s.dst = w.GatherU32(ec.Dst, &idx, active)
		s.wgt = [gpu.WarpSize]uint32{}
		for l := range s.src {
			s.src[l] = prog.push(level)
		}
		visit(w, active, &s.dst, &s.wgt, &s.src)
	})
	return runProgram(ctx, dev, n, prog, src, &engineConfig{
		variant:      MergedAligned,
		transport:    ZeroCopy,
		graphName:    g.Name,
		labelVariant: "edgecentric",
		valueName:    "ecbfs.labels",
		roundName:    "bfs/edgecentric",
		kernel:       kernel,
	})
}
