package core

import (
	"repro/internal/gpu"
)

// This file holds the engine's per-worker kernel scratch. The warp-size
// arrays a kernel hands to its visitFn would otherwise escape to the heap
// on every call — visitFn is an indirect call, so escape analysis must
// assume the callee retains its pointer arguments — which made every
// traversed edge chunk allocate. Instead, each launch worker keeps one
// warpScratch reachable through gpu.Warp.Local (which the launch machinery
// deliberately preserves across launches, see gpu/launch.go), and kernels
// route all visitor-visible storage through it. A visitor must therefore
// never retain its argument pointers past the call — the same lifetime
// rule CUDA shared memory imposes — and none of the engine's visitors do.
//
// The zero-alloc contract this enables is pinned by the
// TestSteadyStateRound*Allocs tests in allocs_test.go: once a run's first
// round has warmed the scratch, subsequent rounds allocate nothing.
type warpScratch struct {
	// Visitor-visible warp-size arrays for the walk helpers: edge
	// destinations, edge weights, and per-lane source values.
	dst, wgt, src [gpu.WarpSize]uint32

	// The edge visitors' relax operands: destination indices into the
	// value (or lane-major) array, candidate values, and the batched
	// visitor's next-frontier word indices. Only the edge mask's lanes are
	// written, and only those are read.
	idx, widx [gpu.WarpSize]int64
	val       [gpu.WarpSize]uint32

	// list is the compressed kernel's decoded neighbor list, grown to the
	// largest degree the worker has decoded.
	list []uint32

	// Batched-mode per-warp lists, sized to the batch width on first use
	// by a batchRun (owner tracks which run sized them). act and push are
	// the views the batched visitor reads; actBuf/groupBuf/pushBuf are
	// their backing storage.
	owner    *batchRun
	actBuf   []int
	groupBuf []uint32
	pushBuf  []uint32
	act      []int
	push     []uint32
}

// scratchOf returns the worker's scratch, creating it on first use. The
// single allocation per worker happens during the first round and is why
// the allocation contract is phrased over steady-state rounds.
func scratchOf(w *gpu.Warp) *warpScratch {
	if s, ok := w.Local.(*warpScratch); ok {
		return s
	}
	s := &warpScratch{}
	w.Local = s
	return s
}

// batchScratch returns the worker's scratch with the batched-mode lists
// sized for br (capacity k). Resizing happens at most once per worker per
// batch width — never in a steady-state round.
func (br *batchRun) batchScratch(w *gpu.Warp) *warpScratch {
	s := scratchOf(w)
	if s.owner != br {
		s.owner = br
		if cap(s.actBuf) < br.k {
			s.actBuf = make([]int, 0, br.k)
			s.groupBuf = make([]uint32, br.k)
			s.pushBuf = make([]uint32, br.k)
		}
	}
	return s
}
