package core

import (
	"math/bits"

	"repro/internal/gpu"
	"repro/internal/memsys"
)

// The engine's standard programs share two kernel launch disciplines:
//
//   - match kernels (BFS): a vertex is active when its state equals the
//     current level, and it pushes the constant level+1 to its neighbors.
//   - active-set kernels (SSSP, CC, SSWP): a vertex is active when its
//     entry in an explicit active bitmap is set, and it pushes its own
//     state value (combined with the edge weight per the program's
//     monoid).
//
// Each discipline comes in the three access variants of §5.1.2: Naive
// (thread per vertex, Listing 1), Merged (warp per vertex, §4.3.1), and
// MergedAligned (warp per vertex shifted to the 128B boundary, §4.3.2).
//
// Both disciplines are materialized as small kernel objects whose launch
// body is built ONCE and reused for every round: the body reads the
// object's mutable per-round fields (level, visitor, buffers) instead of
// capturing per-round values, so a steady-state round allocates no
// closures (the zero-alloc round contract, see allocs_test.go). Warp-size
// arrays the body hands to the visitor route through the per-worker
// scratch for the same reason (see scratch.go).

// Parallel-determinism contract: kernels launched here run their warps on
// several workers at once (gpu.Config.Workers). A match kernel's activity
// predicate (state == match) is stable within a launch — entries only move
// from InfDist to match+1, and neither value equals match — so every
// warp's traffic depends on its ID alone. Active-set kernels additionally
// read per-vertex source values; callers must pass a `state` buffer the
// launch does not mutate (a snapshot of the relax target, see SSSP/CC) so
// those reads are stable too.

// matchKernel is the reusable match-by-level launch: per-round fields are
// assigned, then launch() runs the prebuilt body.
type matchKernel struct {
	dev   *gpu.Device
	name  string
	warps int
	body  func(w *gpu.Warp)

	// Per-round inputs, written before each launch and read by body.
	state   *memsys.Buffer
	match   uint32
	pushVal uint32
	visit   visitFn
}

func newMatchKernel(dev *gpu.Device, dg *DeviceGraph, variant Variant, name string) *matchKernel {
	k := &matchKernel{dev: dev, name: name}
	n := dg.NumVertices()
	switch variant {
	case Naive:
		k.warps = (n + gpu.WarpSize - 1) / gpu.WarpSize
		k.body = func(w *gpu.Warp) {
			vbase := int64(w.ID()) * gpu.WarpSize
			var idx [gpu.WarpSize]int64
			lanes := gpu.MaskNone
			for l := 0; l < gpu.WarpSize; l++ {
				if v := vbase + int64(l); v < int64(n) {
					idx[l] = v
					lanes = lanes.Set(l)
				}
			}
			states := w.GatherU32(k.state, &idx, lanes)
			active := gpu.MaskNone
			s := scratchOf(w)
			s.src = [gpu.WarpSize]uint32{}
			for m := uint32(lanes); m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				if states[l] == k.match {
					active = active.Set(l)
					s.src[l] = k.pushVal
				}
			}
			walkStrided(w, dg, vbase, active, &s.src, false, k.visit)
		}
	case Merged, MergedAligned:
		aligned := variant == MergedAligned
		k.warps = n
		k.body = func(w *gpu.Warp) {
			v := int64(w.ID())
			if w.ScalarU32(k.state, v) != k.match {
				return
			}
			walkMerged(w, dg, v, k.pushVal, aligned, false, k.visit)
		}
	}
	return k
}

func (k *matchKernel) launch() { k.dev.Launch(k.name, k.warps, k.body) }

// activeKernel is the reusable explicit-active-set launch. needW selects
// whether edge weights are gathered; ident is the program's unreached
// value (the relax monoid's identity): vertices still holding it have
// nothing to push and are skipped. state is the buffer active vertices
// read their source value from; per the contract above it must not be
// written during the launch.
type activeKernel struct {
	dev   *gpu.Device
	name  string
	warps int
	body  func(w *gpu.Warp)

	// Per-round inputs, written before each launch and read by body.
	state  *memsys.Buffer
	active *memsys.Buffer
	visit  visitFn
}

func newActiveKernel(dev *gpu.Device, dg *DeviceGraph, variant Variant, name string, needW bool, ident uint32) *activeKernel {
	k := &activeKernel{dev: dev, name: name}
	n := dg.NumVertices()
	switch variant {
	case Naive:
		k.warps = (n + gpu.WarpSize - 1) / gpu.WarpSize
		k.body = func(w *gpu.Warp) {
			vbase := int64(w.ID()) * gpu.WarpSize
			var idx [gpu.WarpSize]int64
			lanes := gpu.MaskNone
			for l := 0; l < gpu.WarpSize; l++ {
				if v := vbase + int64(l); v < int64(n) {
					idx[l] = v
					lanes = lanes.Set(l)
				}
			}
			acts := w.GatherU32(k.active, &idx, lanes)
			actMask := gpu.MaskNone
			for m := uint32(lanes); m != 0; m &= m - 1 {
				if l := bits.TrailingZeros32(m); acts[l] != 0 {
					actMask = actMask.Set(l)
				}
			}
			if actMask == gpu.MaskNone {
				return
			}
			s := scratchOf(w)
			s.src = w.GatherU32(k.state, &idx, actMask)
			work := gpu.MaskNone
			for m := uint32(actMask); m != 0; m &= m - 1 {
				if l := bits.TrailingZeros32(m); s.src[l] != ident {
					work = work.Set(l)
				}
			}
			walkStrided(w, dg, vbase, work, &s.src, needW, k.visit)
		}
	case Merged, MergedAligned:
		aligned := variant == MergedAligned
		k.warps = n
		k.body = func(w *gpu.Warp) {
			v := int64(w.ID())
			if w.ScalarU32(k.active, v) == 0 {
				return
			}
			sv := w.ScalarU32(k.state, v)
			if sv == ident {
				return
			}
			walkMerged(w, dg, v, sv, aligned, needW, k.visit)
		}
	}
	return k
}

func (k *activeKernel) launch() { k.dev.Launch(k.name, k.warps, k.body) }
