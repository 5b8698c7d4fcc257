package core

import (
	"fmt"
	"time"

	"repro/internal/gpu"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// This file implements the paper's §3.3 toy example: the GPU traverses a
// large 1D array of 4-byte elements living in external memory and copies
// it into GPU global memory, under three access disciplines. The resulting
// request patterns are Figure 3; the achieved PCIe and DRAM bandwidths are
// Figure 4.

// ToyPattern selects the toy kernel's access discipline.
type ToyPattern int

const (
	// ToyStrided has each thread iterate over its own contiguous chunk,
	// Figure 3(a): a new 32B request per 32B boundary crossing per lane.
	ToyStrided ToyPattern = iota
	// ToyMergedAligned has each warp read 32 consecutive elements starting
	// on a 128B boundary, Figure 3(b): single 128B requests.
	ToyMergedAligned
	// ToyMergedMisaligned shifts every warp 32 bytes off the 128B
	// boundary, Figure 3(c): a 96B + 32B request pair per warp read.
	ToyMergedMisaligned
)

// String names the pattern as in the paper's figures.
func (p ToyPattern) String() string {
	switch p {
	case ToyStrided:
		return "Strided"
	case ToyMergedAligned:
		return "Merged and Aligned"
	case ToyMergedMisaligned:
		return "Merged but Misaligned"
	default:
		return fmt.Sprintf("ToyPattern(%d)", int(p))
	}
}

// ToyResult reports one toy traversal: the achieved bandwidths and the
// observed request stream.
type ToyResult struct {
	Pattern ToyPattern

	Elapsed time.Duration
	// PCIeBandwidth is useful payload bytes per second over the link.
	PCIeBandwidth float64
	// DRAMBandwidth is host DRAM bytes served per second (≥ PCIe payload
	// because of the 64-byte minimum DDR4 burst).
	DRAMBandwidth float64
	Snapshot      pcie.Snapshot
	Stats         gpu.KernelStats
}

// toyChunkElems is each thread's chunk length in the strided pattern: 64
// four-byte elements (256 bytes, 8 sectors) per thread.
const toyChunkElems = 64

// ToyTraverse runs the §3.3 toy kernel over an array of elems 4-byte
// elements in the given transport's memory, copying it to GPU memory.
// elems is rounded up to a whole number of warp tiles.
func ToyTraverse(dev *gpu.Device, elems int, pattern ToyPattern, transport Transport) (*ToyResult, error) {
	const laneElems = gpu.WarpSize // elements one warp covers per load (4B each: 128B)
	tile := gpu.WarpSize * toyChunkElems
	if elems < tile {
		elems = tile
	}
	if rem := elems % tile; rem != 0 {
		elems += tile - rem
	}
	space := memsys.SpaceHostPinned
	if transport == UVM {
		space = memsys.SpaceUVM
	}
	arena := dev.Arena()
	// The misaligned pattern needs one extra line of slack at the end.
	in, err := arena.Alloc("toy.in", space, int64(elems)*4+memsys.CacheLineBytes, memsys.WithElem(4))
	if err != nil {
		return nil, fmt.Errorf("core: allocating toy input: %w", err)
	}
	out, err := arena.Alloc("toy.out", memsys.SpaceGPU, int64(elems)*4+memsys.CacheLineBytes, memsys.WithElem(4))
	if err != nil {
		arena.Free(in)
		return nil, fmt.Errorf("core: allocating toy output: %w", err)
	}
	defer func() {
		arena.Free(in)
		arena.Free(out)
		dev.ResetUVMResidency()
	}()
	if transport == UVM {
		dev.ResetUVMResidency()
	}
	for i := 0; i < elems; i++ {
		in.PutU32(int64(i), uint32(i))
	}

	warps := elems / tile
	dev.BeginRun(gpu.RunLabels{App: "toy", Variant: pattern.String(),
		Transport: transport.String(), Graph: "1d-array"})
	defer dev.EndRun()
	mon0 := dev.Monitor().Snapshot()

	var ks gpu.KernelStats
	switch pattern {
	case ToyStrided:
		ks = dev.Launch("toy/strided", warps, func(w *gpu.Warp) {
			// Lane l owns chunk [base + l*chunk, base + (l+1)*chunk).
			base := int64(w.ID()) * int64(tile)
			var idx [gpu.WarpSize]int64
			var val [gpu.WarpSize]uint32
			for j := 0; j < toyChunkElems; j++ {
				for l := 0; l < gpu.WarpSize; l++ {
					idx[l] = base + int64(l*toyChunkElems+j)
				}
				vals := w.GatherU32(in, &idx, gpu.MaskFull)
				copy(val[:], vals[:])
				w.ScatterU32(out, &idx, &val, gpu.MaskFull)
			}
		})
	case ToyMergedAligned, ToyMergedMisaligned:
		shift := int64(0)
		if pattern == ToyMergedMisaligned {
			shift = 8 // 8 x 4B = 32B off the 128B boundary
		}
		ks = dev.Launch("toy/"+pattern.String(), warps, func(w *gpu.Warp) {
			base := int64(w.ID())*int64(tile) + shift
			var idx [gpu.WarpSize]int64
			var val [gpu.WarpSize]uint32
			for j := 0; j < tile; j += laneElems {
				for l := 0; l < gpu.WarpSize; l++ {
					idx[l] = base + int64(j) + int64(l)
				}
				vals := w.GatherU32(in, &idx, gpu.MaskFull)
				copy(val[:], vals[:])
				w.ScatterU32(out, &idx, &val, gpu.MaskFull)
			}
		})
	default:
		return nil, fmt.Errorf("core: unknown toy pattern %d", pattern)
	}

	kernelTime := ks.Elapsed - dev.Config().LaunchOverhead
	stats := dev.RunStats()
	res := &ToyResult{
		Pattern:  pattern,
		Elapsed:  stats.Elapsed,
		Stats:    stats,
		Snapshot: dev.Monitor().Snapshot().Delta(mon0),
	}
	if kernelTime > 0 {
		res.PCIeBandwidth = float64(res.Stats.PCIePayloadBytes) / kernelTime.Seconds()
		res.DRAMBandwidth = float64(res.Stats.HostDRAMBytes) / kernelTime.Seconds()
	}
	return res, nil
}
