package gpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memsys"
)

// TestAtomicMinConvergesProperty: for any sequence of atomicMin operations
// over any lane/warp partitioning, each cell ends at the minimum of its
// initial value and every value ever pushed at it — order independence is
// what the traversal algorithms rely on — and RelaxMinU32 reports exactly
// the lanes that lowered their cell, in ascending lane order.
func TestAtomicMinConvergesProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const cells = 16
		d := testDevice()
		buf := d.Arena().MustAlloc("cells", memsys.SpaceGPU, cells*4)
		want := make([]uint32, cells)
		for i := range want {
			want[i] = 1000
			buf.PutU32(int64(i), 1000)
		}
		rng := rand.New(rand.NewSource(seed))
		ok := true
		// Partition ops into random warp batches with random lane masks.
		d.Launch("minprop", 1, func(w *Warp) {
			i := 0
			for i < len(ops) {
				var idx [WarpSize]int64
				var val [WarpSize]uint32
				mask, wantWon := MaskNone, MaskNone
				batch := 1 + rng.Intn(WarpSize)
				for l := 0; l < batch && i < len(ops); l++ {
					cell := int64(ops[i]) % cells
					v := uint32(ops[i]) % 2000
					idx[l] = cell
					val[l] = v
					mask = mask.Set(l)
					if v < want[cell] {
						want[cell] = v
						wantWon = wantWon.Set(l)
					}
					i++
				}
				if w.RelaxMinU32(buf, &idx, &val, mask) != wantWon {
					ok = false
				}
			}
		})
		if !ok {
			return false
		}
		for c := int64(0); c < cells; c++ {
			if buf.U32(c) != want[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAtomicOrU64ConvergesProperty: for any sequence of 64-bit atomicOr
// operations over any lane/warp partitioning, each cell ends at the OR of
// its initial value and every value ever pushed at it — the order
// independence the batched engine's lane-bitmask frontier relies on. Each
// batch ORs one bit into the cells of a random subset of its lanes through
// AtomicOrLanesU64; the other active lanes leave their cells unchanged.
func TestAtomicOrU64ConvergesProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const cells = 16
		d := testDevice()
		buf := d.Arena().MustAlloc("orcells", memsys.SpaceGPU, cells*8)
		want := make([]uint64, cells)
		for i := range want {
			want[i] = 1 << 63
			buf.PutU64(int64(i), 1<<63)
		}
		rng := rand.New(rand.NewSource(seed))
		d.Launch("orprop", 1, func(w *Warp) {
			i := 0
			for i < len(ops) {
				var idx [WarpSize]int64
				v := uint64(1) << (ops[i] % 63)
				mask, set := MaskNone, MaskNone
				batch := 1 + rng.Intn(WarpSize)
				for l := 0; l < batch && i < len(ops); l++ {
					cell := int64(ops[i]) % cells
					idx[l] = cell
					mask = mask.Set(l)
					if rng.Intn(2) == 0 {
						set = set.Set(l)
						want[cell] |= v
					}
					i++
				}
				w.AtomicOrLanesU64(buf, &idx, v, mask, set)
			}
		})
		for c := int64(0); c < cells; c++ {
			if buf.U64(c) != want[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestScatterGatherRoundTripProperty: scattering values and gathering them
// back through the warp API is the identity for any index permutation
// without duplicates.
func TestScatterGatherRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		d := testDevice()
		buf := d.Arena().MustAlloc("rt", memsys.SpaceGPU, 1<<12)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(512)
		var idx [WarpSize]int64
		var val [WarpSize]uint32
		for l := 0; l < WarpSize; l++ {
			idx[l] = int64(perm[l])
			val[l] = rng.Uint32()
		}
		ok := true
		d.Launch("rt", 1, func(w *Warp) {
			w.ScatterU32(buf, &idx, &val, MaskFull)
			w.InvalidateMRU()
			got := w.GatherU32(buf, &idx, MaskFull)
			for l := 0; l < WarpSize; l++ {
				if got[l] != val[l] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
