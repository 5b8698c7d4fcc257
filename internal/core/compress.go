package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
)

// This file implements the paper's §6 compression direction: "while
// maintaining the basic structure of CSR, if each neighbor list can be
// stored into the host memory in a compressed form, these idling resources
// can be utilized to decompress the list without any overall performance
// loss."
//
// Encoding: adjacency lists are already sorted ascending, so each list is
// stored as a 4-byte first destination followed by fixed-width deltas
// (1, 2, or 4 bytes, chosen per list), padded to 4-byte alignment. The
// fixed width keeps decompression a warp-parallel prefix sum — the kind of
// work idle lanes can absorb — rather than a serial varint scan.
//
// The traversal kernel walks the *compressed* byte extent with the same
// merged+aligned 128-byte request discipline as the plain kernel, so the
// PCIe request mix stays optimal while the bytes shrink.

// CompressedDeviceGraph is a graph whose edge list lives compressed in
// pinned host memory.
type CompressedDeviceGraph struct {
	Graph *graph.CSR

	// Offsets is the original element-count offset array (GPU memory).
	Offsets *memsys.Buffer
	// Meta holds one u64 per vertex: byte offset of the vertex's
	// compressed list in Comp, with the delta width code (0:1B, 1:2B,
	// 2:4B) in the top two bits. GPU memory.
	Meta *memsys.Buffer
	// Comp is the compressed edge stream (pinned host memory, zero-copy).
	Comp *memsys.Buffer

	// CompressedBytes and PlainBytes report the compression result
	// (plain = 8-byte elements, the paper's main configuration).
	CompressedBytes int64
	PlainBytes      int64
}

// Ratio returns plain bytes divided by compressed bytes.
func (c *CompressedDeviceGraph) Ratio() float64 {
	if c.CompressedBytes == 0 {
		return 0
	}
	return float64(c.PlainBytes) / float64(c.CompressedBytes)
}

// deltaWidth returns the narrowest fixed width covering every gap of the
// sorted list, and its meta code.
func deltaWidth(list []uint32) (int, uint64) {
	width := 1
	for i := 1; i < len(list); i++ {
		switch d := list[i] - list[i-1]; {
		case d > 0xFFFF:
			return 4, 2
		case d > 0xFF && width < 2:
			width = 2
		}
	}
	if width == 2 {
		return 2, 1
	}
	return 1, 0
}

// UploadCompressed compresses g's edge list and places it on the device:
// offsets and meta in GPU memory, the compressed stream in pinned host
// memory.
func UploadCompressed(dev *gpu.Device, g *graph.CSR) (*CompressedDeviceGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: refusing to compress invalid graph: %w", err)
	}
	n := g.NumVertices()
	arena := dev.Arena()

	// First pass: sizes.
	var total int64
	metaVals := make([]uint64, n)
	for v := 0; v < n; v++ {
		list := g.Neighbors(v)
		if len(list) == 0 {
			metaVals[v] = uint64(total) // empty list: zero extent
			continue
		}
		w, code := deltaWidth(list)
		bytes := int64(4 + (len(list)-1)*w)
		bytes = (bytes + 3) &^ 3 // 4-byte padding
		metaVals[v] = uint64(total) | code<<62
		total += bytes
	}

	offsets, err := arena.Alloc(g.Name+".offsets", memsys.SpaceGPU, int64(n+1)*8, memsys.WithElem(8))
	if err != nil {
		return nil, fmt.Errorf("core: allocating vertex list: %w", err)
	}
	meta, err := arena.Alloc(g.Name+".cmeta", memsys.SpaceGPU, int64(n)*8, memsys.WithElem(8))
	if err != nil {
		return nil, fmt.Errorf("core: allocating compression metadata: %w", err)
	}
	comp, err := arena.Alloc(g.Name+".cedges", memsys.SpaceHostPinned, total, memsys.WithElem(4))
	if err != nil {
		return nil, fmt.Errorf("core: allocating compressed edges: %w", err)
	}
	for v := 0; v <= n; v++ {
		offsets.PutU64(int64(v), uint64(g.Offsets[v]))
	}
	// Second pass: encode.
	for v := 0; v < n; v++ {
		meta.PutU64(int64(v), metaVals[v])
		list := g.Neighbors(v)
		if len(list) == 0 {
			continue
		}
		off := int64(metaVals[v] &^ (3 << 62))
		w := 1 << uint(metaVals[v]>>62)
		binary.LittleEndian.PutUint32(comp.Data[off:], list[0])
		p := off + 4
		for i := 1; i < len(list); i++ {
			d := list[i] - list[i-1]
			switch w {
			case 1:
				comp.Data[p] = byte(d)
			case 2:
				binary.LittleEndian.PutUint16(comp.Data[p:], uint16(d))
			default:
				binary.LittleEndian.PutUint32(comp.Data[p:], d)
			}
			p += int64(w)
		}
	}
	dev.ResetUVMResidency()
	return &CompressedDeviceGraph{
		Graph:           g,
		Offsets:         offsets,
		Meta:            meta,
		Comp:            comp,
		CompressedBytes: total,
		PlainBytes:      g.EdgeListBytes(8),
	}, nil
}

// Free releases the compressed graph's buffers.
func (c *CompressedDeviceGraph) Free(dev *gpu.Device) {
	arena := dev.Arena()
	arena.Free(c.Offsets)
	arena.Free(c.Meta)
	arena.Free(c.Comp)
	dev.ResetUVMResidency()
}

// DecodeList decompresses vertex v's neighbor list from the compressed
// stream into buf's storage, growing it when short, and returns the list
// (host-side helper used by tests and the kernel's functional path, which
// passes its worker's scratch so steady-state rounds do not allocate).
func (c *CompressedDeviceGraph) DecodeList(v int, buf []uint32) []uint32 {
	deg := int(c.Graph.Degree(v))
	if deg == 0 {
		return buf[:0]
	}
	metaVal := c.Meta.U64(int64(v))
	off := int64(metaVal &^ (3 << 62))
	w := 1 << uint(metaVal>>62)
	out := slices.Grow(buf[:0], deg)[:deg]
	out[0] = binary.LittleEndian.Uint32(c.Comp.Data[off:])
	p := off + 4
	for i := 1; i < deg; i++ {
		var d uint32
		switch w {
		case 1:
			d = uint32(c.Comp.Data[p])
		case 2:
			d = uint32(binary.LittleEndian.Uint16(c.Comp.Data[p:]))
		default:
			d = binary.LittleEndian.Uint32(c.Comp.Data[p:])
		}
		out[i] = out[i-1] + d
		p += int64(w)
	}
	return out
}

// BFSCompressed runs merged+aligned BFS over the compressed edge stream.
// Warps stream their vertex's compressed extent with 128-byte-aligned
// requests and decompress with warp-parallel prefix sums (charged as extra
// warp instructions — the "idling resources" of §6).
func BFSCompressed(ctx context.Context, dev *gpu.Device, cdg *CompressedDeviceGraph, src int) (*Result, error) {
	g := cdg.Graph
	n := g.NumVertices()
	prog := bfsProgram()
	kernel := launchKernel("bfs/compressed", n, func(r *engineRound, w *gpu.Warp) {
		level, labels, visit := r.level, r.values, r.visit
		v := int64(w.ID())
		if w.ScalarU32(labels, v) != level {
			return
		}
		deg := g.Degree(int(v))
		if deg == 0 {
			return
		}
		metaVal := w.ScalarU64(cdg.Meta, v)
		off := int64(metaVal &^ (3 << 62))
		width := 1 << uint(metaVal>>62)
		bytes := int64(4 + (deg-1)*int64(width))
		bytes = (bytes + 3) &^ 3

		// Traffic: stream the compressed extent as 4-byte words with
		// 128B-aligned warp loads (the merged+aligned discipline over
		// the compressed bytes).
		firstWord := (off / 4) &^ (32 - 1)
		lastWord := (off + bytes + 3) / 4
		var words [gpu.WarpSize]uint32
		for i := firstWord; i < lastWord; i += gpu.WarpSize {
			// Lane l reads word i+l when it lies in [off/4, lastWord).
			lo := int(max(off/4-i, 0))
			hi := int(min(lastWord-i, gpu.WarpSize))
			w.Instr(2)
			if lo < hi {
				w.GatherRange(cdg.Comp, 4, i, lo, hi, &words)
			}
		}
		// Decompression: a warp-parallel prefix sum over the deltas,
		// charged as ~1 instruction per 32 decoded elements plus a
		// fixed log-depth scan cost.
		w.Instr(int(deg/gpu.WarpSize) + 5)

		// Functional path: decode and relax, 32 destinations at a time.
		s := scratchOf(w)
		s.list = cdg.DecodeList(int(v), s.list)
		list := s.list
		s.wgt = [gpu.WarpSize]uint32{}
		for l := range s.src {
			s.src[l] = prog.push(level)
		}
		for base := 0; base < len(list); base += gpu.WarpSize {
			mask := gpu.MaskNone
			for l := 0; l < gpu.WarpSize && base+l < len(list); l++ {
				s.dst[l] = list[base+l]
				mask = mask.Set(l)
			}
			visit(w, mask, &s.dst, &s.wgt, &s.src)
		}
	})
	return runProgram(ctx, dev, n, prog, src, &engineConfig{
		variant:      MergedAligned,
		transport:    ZeroCopy,
		graphName:    g.Name,
		labelVariant: "compressed",
		valueName:    "bfs.labels",
		roundName:    "bfs/compressed",
		kernel:       kernel,
	})
}
