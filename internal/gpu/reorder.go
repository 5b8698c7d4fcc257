package gpu

import (
	"slices"

	"repro/internal/memsys"
)

// This file implements the optional IARU-style reorder stage (PAPERS.md:
// "Irregular Accesses Reorder Unit"). When enabled, coalesced runs headed
// for an off-device tier (host-pinned zero-copy or the external CXL tier)
// are not dispatched immediately: their 32B sectors are buffered in a
// bounded per-warp window and re-grouped by 128-byte cache line when the
// window flushes. Sectors that different virtual-warp slices touched in the
// same line — invisible to the per-access coalescer — merge into one wider
// request, raising the mean request size the same way the IARU hardware
// raises it ahead of the memory coalescer.
//
// Scope and determinism:
//   - Only SpaceHostPinned and SpaceCXL runs are buffered. SpaceGPU is
//     local (nothing to merge on a link), and SpaceUVM must keep its
//     dispatch order because page migration state (LRU) is order-dependent.
//   - The window is per-warp state, flushed at the end of each warp by
//     runWarpRange, so no request ever crosses a warp boundary. Warps are
//     never split across launch workers, which keeps every derived count
//     bit-identical for any worker count (DESIGN.md §17).
//   - The MRU sector filter and the L2 thrash inputs (ZCSectorReuses,
//     ZCActiveLanes) are applied at access time, before buffering, so they
//     are identical with the stage on or off. Only the request grouping —
//     counts, sizes, and the per-warp critical-path request totals — moves.

// minReorderWindow is the smallest effective window: one full 128B line
// (four sectors), so a single coalesced run always fits an empty window.
const minReorderWindow = 4

// reorderEntry is one buffered 32B sector. Sector numbers are global
// virtual addresses >> 5, so they are unique across buffers; the buffer is
// carried along because a flush dispatches through the owning buffer's
// space routing.
type reorderEntry struct {
	buf    *memsys.Buffer
	sector uint64
}

// reorderPush buffers one coalesced run (sectors s[lo:hi], all within one
// 128B line of buf) into the window, flushing first if the run would not
// fit. Counts the run against the pre-reorder baseline so the flush can
// attribute merged requests.
func (w *Warp) reorderPush(buf *memsys.Buffer, s []uint64, lo, hi int) {
	if len(w.reorder)+(hi-lo) > w.reorderCap {
		w.flushReorder()
	}
	for j := lo; j < hi; j++ {
		w.reorder = append(w.reorder, reorderEntry{buf: buf, sector: s[j]})
	}
	w.reorderBase++
	if len(w.reorder) >= w.reorderCap {
		w.flushReorder()
	}
}

// flushReorder drains the window: sorts the buffered sectors, deduplicates,
// re-groups contiguous sectors within a 128B line into single requests, and
// dispatches them. Dispatch order is ascending sector order — deterministic
// regardless of the access order that filled the window.
func (w *Warp) flushReorder() {
	n := len(w.reorder)
	if n == 0 {
		return
	}
	e := w.reorder
	slices.SortFunc(e, func(a, b reorderEntry) int {
		switch {
		case a.sector < b.sector:
			return -1
		case a.sector > b.sector:
			return 1
		default:
			return 0
		}
	})
	// Deduplicate in place. Equal sectors always belong to the same buffer
	// (sector numbers are global VAs), so keeping the first is enough.
	m := 1
	for i := 1; i < n; i++ {
		if e[i].sector != e[m-1].sector {
			e[m] = e[i]
			m++
		}
	}
	e = e[:m]
	// Emit one request per contiguous sector run within a 128B line, never
	// crossing a buffer boundary (adjacent buffers can abut in VA space).
	emitted := uint64(0)
	runStart := 0
	for i := 1; i <= m; i++ {
		if i < m && e[i].sector == e[i-1].sector+1 &&
			e[i].sector>>2 == e[runStart].sector>>2 &&
			e[i].buf == e[runStart].buf {
			continue
		}
		buf, addr := e[runStart].buf, e[runStart].sector<<5
		size := (i - runStart) * memsys.SectorBytes
		w.dispatch(buf, buf.SpaceAt(int64(addr-buf.Base)), addr, size)
		emitted++
		runStart = i
	}
	ks := w.ks
	ks.ReorderFlushes++
	ks.ReorderWindowSectors += uint64(n)
	if w.reorderBase > emitted {
		ks.ReorderMerged += w.reorderBase - emitted
	}
	w.reorder = w.reorder[:0]
	w.reorderBase = 0
}
