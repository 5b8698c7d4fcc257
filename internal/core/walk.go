package core

import (
	"math/bits"

	"repro/internal/gpu"
)

// visitFn processes one warp-load of traversed edges. For each active lane
// l: dst[l] is the edge destination, wgt[l] its weight (zero when the walk
// was invoked without weights), and srcVal[l] the caller-supplied value of
// the edge's source vertex (BFS level, SSSP distance, CC label).
type visitFn func(w *gpu.Warp, mask gpu.Mask, dst *[gpu.WarpSize]uint32, wgt, srcVal *[gpu.WarpSize]uint32)

// gatherEdges loads edge destinations at the given indices with the
// device graph's element width: the lane path of the strided and sub-warp
// walks, whose lanes do not read one contiguous range.
func gatherEdges(w *gpu.Warp, dg *DeviceGraph, idx *[gpu.WarpSize]int64, mask gpu.Mask) [gpu.WarpSize]uint32 {
	var out [gpu.WarpSize]uint32
	if dg.EdgeBytes == 8 {
		vals := w.GatherU64(dg.Edges, idx, mask)
		for m := uint32(mask); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			out[l] = uint32(vals[l])
		}
		return out
	}
	return w.GatherU32(dg.Edges, idx, mask)
}

// walkMerged traverses vertex v's neighbor list with the whole warp as the
// worker (§4.3.1): each iteration the 32 lanes read 32 consecutive edge
// elements. With aligned set, the start index is first shifted down to the
// closest preceding 128-byte boundary and the underflowed lanes are masked
// off (§4.3.2 / Listing 2) so every request the coalescer emits is
// 128B-aligned.
func walkMerged(w *gpu.Warp, dg *DeviceGraph, v int64, srcVal uint32, aligned, needW bool, visit visitFn) {
	start, end := w.PairU64(dg.Offsets, v)
	if start >= end {
		return
	}
	first := int64(start)
	if aligned {
		first &^= dg.ElemsPerCacheLine() - 1
	}
	// The arrays the visitor sees live in the worker's scratch, not on this
	// frame: visit is an indirect call, so frame-local arrays passed to it
	// would escape and every chunk would allocate (see scratch.go).
	s := scratchOf(w)
	for l := range s.src {
		s.src[l] = srcVal
	}
	if !needW {
		s.wgt = [gpu.WarpSize]uint32{}
	}
	for i := first; i < int64(end); i += gpu.WarpSize {
		// Lane l reads element i+l when it lies in [start, end): the lanes
		// lo..hi-1. lo > 0 is the aligned variant's underflow guard
		// (Listing 2's `if (i >= start_org)`).
		lo := int(max(int64(start)-i, 0))
		hi := int(min(int64(end)-i, gpu.WarpSize))
		w.Instr(2) // loop + guard bookkeeping
		if lo >= hi {
			continue
		}
		w.GatherRange(dg.Edges, dg.EdgeBytes, i, lo, hi, &s.dst)
		if needW {
			w.GatherRange(dg.Weights, 4, i, lo, hi, &s.wgt)
		}
		visit(w, gpu.MaskFirstN(hi)&^gpu.MaskFirstN(lo), &s.dst, &s.wgt, &s.src)
	}
}

// walkStrided traverses 32 vertices with one warp, one thread per vertex
// (Listing 1): lane l owns vertex vbase+l and iterates its neighbor list
// element by element. active masks which lanes have work; srcVals carries
// each lane's source-vertex value.
func walkStrided(w *gpu.Warp, dg *DeviceGraph, vbase int64, active gpu.Mask, srcVals *[gpu.WarpSize]uint32, needW bool, visit visitFn) {
	if active == gpu.MaskNone {
		return
	}
	// Per-lane neighbor list bounds, loaded through the vertex list.
	var idxV, idxV1 [gpu.WarpSize]int64
	for m := uint32(active); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		idxV[l] = vbase + int64(l)
		idxV1[l] = vbase + int64(l) + 1
	}
	starts := w.GatherU64(dg.Offsets, &idxV, active)
	ends := w.GatherU64(dg.Offsets, &idxV1, active)
	maxDeg := int64(0)
	for m := uint32(active); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if d := int64(ends[l] - starts[l]); d > maxDeg {
			maxDeg = d
		}
	}
	// Same scratch discipline as walkMerged: the visitor-visible arrays
	// must not live on this frame. Callers pass srcVals pointing into the
	// same scratch (or other launch-lived storage), never a frame-local.
	s := scratchOf(w)
	if !needW {
		s.wgt = [gpu.WarpSize]uint32{}
	}
	for j := int64(0); j < maxDeg; j++ {
		var idx [gpu.WarpSize]int64
		mask := gpu.MaskNone
		for m := uint32(active); m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if j < int64(ends[l]-starts[l]) {
				idx[l] = int64(starts[l]) + j
				mask = mask.Set(l)
			}
		}
		w.Instr(2)
		if mask == gpu.MaskNone {
			break
		}
		s.dst = gatherEdges(w, dg, &idx, mask)
		if needW {
			s.wgt = w.GatherU32(dg.Weights, &idx, mask)
		}
		visit(w, mask, &s.dst, &s.wgt, srcVals)
	}
}
