package gpu

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/memsys"
	"repro/internal/pcie"
)

// Mask selects active lanes of a warp; bit i is lane i.
type Mask uint32

// MaskFull has all 32 lanes active.
const MaskFull Mask = 0xFFFFFFFF

// MaskNone has no lanes active.
const MaskNone Mask = 0

// MaskFirstN returns a mask with lanes 0..n-1 active. n is clamped to
// [0, WarpSize].
func MaskFirstN(n int) Mask {
	if n <= 0 {
		return 0
	}
	if n >= WarpSize {
		return MaskFull
	}
	return Mask(uint32(1)<<uint(n) - 1)
}

// Has reports whether lane i is active.
func (m Mask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Set returns m with lane i active.
func (m Mask) Set(i int) Mask { return m | 1<<uint(i) }

// Count returns the number of active lanes.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// Warp is the execution context passed to kernel bodies: 32 lanes executing
// in lock step. All memory traffic flows through the coalescing unit, which
// reproduces the request patterns of the paper's Figure 3.
type Warp struct {
	dev *Device
	ks  *KernelStats
	id  int

	// mon receives this warp's individual PCIe request records. On the
	// serial path it is the launch's traffic record; on the parallel path
	// it is the running chunk's private monitor, merged into that record in
	// chunk order at the launch barrier.
	mon *pcie.Monitor

	// zcBySize counts the running chunk's zero-copy requests per size class
	// (32/64/96/128 bytes). The launch barrier merges the counts and
	// derives the wire/tag roofline seconds from the totals, keeping the
	// float arithmetic independent of the warp partitioning.
	zcBySize *[zcSizeClasses]uint64

	// cxlBySize is the same per-size-class count for requests served by
	// the external CXL-class tier, merged and converted with the CXL
	// link's constants at the launch barrier.
	cxlBySize *[zcSizeClasses]uint64

	// mru is the per-lane most-recently-touched 32B sector, modeling the L1
	// behaviour behind §3.3's "each thread generates a new 32-byte request
	// every time it crosses a 32-byte address boundary": repeated loads
	// within a lane's current sector do not re-issue requests. Bit i of
	// mruValid says whether lane i holds a sector, so a reset is one store.
	// The lanes of rec hold the last range read's sectors, which
	// override their mru entries; the other valid lanes hold mru[i].
	mru      [WarpSize]uint64
	mruValid uint32
	rec      mruRange

	// coalescer scratch (no allocation on the hot path)
	sectors [2 * WarpSize]uint64

	// zcLanes marks lanes that streamed zero-copy data during this warp's
	// execution, feeding the L2 thrash model's concurrency estimate.
	zcLanes uint32

	// hostReqs counts host-memory requests issued by the current warp,
	// feeding the latency-bound critical-path term. cxlReqs is the
	// external-tier analogue, kept separate because the two links have
	// very different round-trip times.
	hostReqs uint64
	cxlReqs  uint64

	// faultSeq numbers this warp's zero-copy requests within the current
	// launch, giving the fault injector a coordinate — (run epoch, warp ID,
	// request seq) — that identifies a request independently of how the
	// launch was split across host workers. Reset per warp by
	// runWarpRange; unused when no FaultHook is attached.
	faultSeq uint64

	// reorder is the IARU-style reorder window (see reorder.go): buffered
	// off-device sectors awaiting a line-regrouped flush. reorderCap > 0
	// enables the stage; reorderBase counts the coalesced runs buffered
	// since the last flush (the pre-reorder request baseline). The slice's
	// capacity persists across warps and launches.
	reorder     []reorderEntry
	reorderCap  int
	reorderBase uint64

	// touches, when non-nil, is the running parallel chunk's UVM touch log:
	// dispatch appends to it instead of touching the manager, and the
	// launch barrier replays the log in chunk order. Nil on the serial
	// path, which touches inline.
	touches *touchLog

	// Local is kernel-private per-worker scratch. The launch machinery
	// never touches it: it persists across warps, launches, and runs, so
	// kernels can reuse allocation-free state (e.g. the traversal engine's
	// walk buffers) for the lifetime of the executing worker.
	Local any
}

// ID returns the warp's global index within the launch grid.
func (w *Warp) ID() int { return w.id }

// Instr accounts n extra warp instructions (loop and branch bookkeeping).
func (w *Warp) Instr(n int) { w.ks.WarpInstrs += uint64(n) }

// InvalidateMRU clears the per-lane sector reuse state, e.g. at a
// synchronization point.
func (w *Warp) InvalidateMRU() {
	w.mruValid = 0
	w.rec = mruRange{}
}

// mruRange is a range read's MRU entries in affine form: after lanes
// lo..hi-1 read the consecutive elements at addr + l<<shift, lane l holds
// sector (addr + l<<shift)>>5. One record stands for up to 32 per-lane
// stores; lo >= hi is the empty record. Its lanes are always valid in
// mruValid.
type mruRange struct {
	lo, hi int
	addr   uint64
	shift  uint
}

// sector is lane l's MRU sector under the record.
func (r *mruRange) sector(l int) uint64 { return (r.addr + uint64(l)<<r.shift) >> 5 }

// flattenMRU writes the record's lanes outside lo..hi-1 into mru and
// empties the record, so that mru alone holds every lane but lo..hi-1.
func (w *Warp) flattenMRU(lo, hi int) {
	r := &w.rec
	for l := r.lo; l < min(r.hi, lo); l++ {
		w.mru[l&(WarpSize-1)] = r.sector(l)
	}
	for l := max(r.lo, hi); l < r.hi; l++ {
		w.mru[l&(WarpSize-1)] = r.sector(l)
	}
	r.lo, r.hi = 0, 0
}

// access is the coalescing unit. For each active lane it computes the
// touched 32-byte sector of element idx[lane], whose width is 1<<elemShift
// bytes; sectors already in the lane's MRU are L1 hits (reads only). The
// remaining sectors are grouped by 128-byte cache line and each contiguous
// sector run within a line becomes one memory request of 32, 64, 96, or
// 128 bytes, dispatched to the buffer's backing space.
//
// Only the active lanes are visited, in ascending order (a bit scan of the
// mask), and a buffer whose space does not vary with the offset resolves
// it once per call. Both are host-side shortcuts: the sectors, requests,
// and counters are exactly those of a walk over all 32 lanes that resolves
// the space per lane and per request (FuzzCoalescer pins this).
//
// Element accesses must not straddle sector boundaries: callers guarantee
// element-aligned indices (4- or 8-byte elements on matching alignment),
// which real allocators guarantee too.
func (w *Warp) access(buf *memsys.Buffer, idx *[WarpSize]int64, elemShift uint, mask Mask, write bool) {
	w.ks.WarpInstrs++
	if !write {
		w.flattenMRU(0, 0)
	}
	sp, uniform := buf.UniformSpace()
	zc := sp == memsys.SpaceHostPinned
	n := 0
	sorted := true
	for m := uint32(mask); m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		off := idx[lane] << elemShift
		sector := (buf.Base + uint64(off)) >> 5
		if !write {
			if !uniform {
				zc = buf.SpaceAt(off) == memsys.SpaceHostPinned
			}
			if w.mruHit(lane, sector, zc) {
				continue
			}
		}
		// Lanes in one sector are usually adjacent; dropping the repeat
		// here leaves the sorted, deduplicated set below unchanged.
		if n > 0 {
			if w.sectors[n-1] == sector {
				continue
			}
			if sector < w.sectors[n-1] {
				sorted = false
			}
		}
		w.sectors[n] = sector
		n++
	}
	w.emit(buf, sp, uniform, n, sorted)
}

// accessRange is access for a contiguous lane range: lanes lo..hi-1
// (0 <= lo <= hi <= WarpSize) touch the consecutive elements base+lo …
// base+hi-1. It is the merged kernels' edge gather (§4.3.1) and the pair
// load. Its sectors are first..last, ascending and free of repeats by
// construction. A read first asks mayHit whether any lane can hit its
// MRU sector; when none can, every lane misses, all of first..last are
// requested and the range becomes the warp's MRU record. When one might,
// it runs access with idx[l] = base+l under the mask of lanes lo..hi-1.
// Every effect is that of that access call — each lane's space, MRU entry
// and hit or miss, and the sectors, requests, reorder-window entries and
// UVM touches that follow (FuzzCoalescer pins the range path against both
// the lane path and the reference coalescer).
func (w *Warp) accessRange(buf *memsys.Buffer, base int64, elemShift uint, lo, hi int, write bool) {
	if lo >= hi {
		w.ks.WarpInstrs++
		return
	}
	// Lane l reads addr + l<<elemShift; addr wraps for a negative base,
	// but the lanes' addresses do not.
	addr := buf.Base + uint64(base)<<elemShift
	first := (addr + uint64(lo)<<elemShift) >> 5
	last := (addr + uint64(hi-1)<<elemShift) >> 5
	sp, uniform := buf.UniformSpace()
	if !write {
		span := laneSpan(lo, hi)
		if w.mayHit(addr, elemShift, lo, hi, span) {
			var idx [WarpSize]int64
			for l := lo; l < hi; l++ {
				idx[l] = base + int64(l)
			}
			w.access(buf, &idx, elemShift, Mask(span), false)
			return
		}
		// Every lane misses: a zero-copy lane is streaming (see mruHit).
		if uniform {
			if sp == memsys.SpaceHostPinned {
				w.zcLanes |= span
			}
		} else {
			for l := lo; l < hi; l++ {
				if buf.SpaceAt((base+int64(l))<<elemShift) == memsys.SpaceHostPinned {
					w.zcLanes |= 1 << uint(l)
				}
			}
		}
		w.flattenMRU(lo, hi)
		w.rec = mruRange{lo: lo, hi: hi, addr: addr, shift: elemShift}
		w.mruValid |= span
	}
	w.ks.WarpInstrs++
	if uniform && sp == memsys.SpaceGPU {
		w.ks.HBMBytes += (last - first + 1) * memsys.SectorBytes
		return
	}
	n := 0
	for s := first; s <= last; s++ {
		w.sectors[n] = s
		n++
	}
	w.emit(buf, sp, uniform, n, true)
}

// mayHit reports whether some lane l of lo..hi-1 (the mask span) might hit
// its MRU sector on a read of addr + l<<shift. False is exact: no lane
// hits. Valid lanes outside the record are compared one by one (a scalar
// load's lane 0, or what the lane path left); the record's lanes are
// decided at once. With equal shifts a record lane's old and new
// addresses differ by the same d, so |d| >= 32 puts them in different
// sectors. Otherwise both sector sequences ascend with the lane, so over
// the shared lanes they can only meet when their spans overlap.
func (w *Warp) mayHit(addr uint64, shift uint, lo, hi int, span uint32) bool {
	r := &w.rec
	for m := w.mruValid & span &^ laneSpan(r.lo, r.hi); m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if w.mru[l] == (addr+uint64(l)<<shift)>>5 {
			return true
		}
	}
	olo, ohi := max(lo, r.lo), min(hi, r.hi)
	if olo >= ohi {
		return false
	}
	if r.shift == shift {
		if d := int64(addr - r.addr); d >= memsys.SectorBytes || d <= -memsys.SectorBytes {
			return false
		}
	}
	return r.sector(olo) <= (addr+uint64(ohi-1)<<shift)>>5 && (addr+uint64(olo)<<shift)>>5 <= r.sector(ohi-1)
}

// accessOne is access for lane 0 alone on element idx: the scalar loads,
// stores and atomics.
func (w *Warp) accessOne(buf *memsys.Buffer, idx int64, elemShift uint, write bool) {
	w.ks.WarpInstrs++
	off := idx << elemShift
	sector := (buf.Base + uint64(off)) >> 5
	sp, uniform := buf.UniformSpace()
	if !write {
		if r := &w.rec; r.lo == 0 && r.hi > 0 {
			// Lane 0 leaves the record for mru[0].
			w.mru[0] = r.sector(0)
			r.lo = 1
		}
		zc := sp == memsys.SpaceHostPinned
		if !uniform {
			zc = buf.SpaceAt(off) == memsys.SpaceHostPinned
		}
		if w.mruHit(0, sector, zc) {
			return
		}
	}
	if uniform && sp == memsys.SpaceGPU {
		w.ks.HBMBytes += memsys.SectorBytes
		return
	}
	w.sectors[0] = sector
	w.emit(buf, sp, uniform, 1, true)
}

// laneSpan is the mask of lanes lo..hi-1.
func laneSpan(lo, hi int) uint32 {
	return uint32(uint64(1)<<uint(hi) - uint64(1)<<uint(lo))
}

// mruHit applies lane's L1 filter to a read of sector, reporting whether
// the read hits the lane's most recently touched sector. zc says whether
// the sector is served zero-copy: such a hit is a potential reuse for the
// thrash model at kernel finish, which converts a concurrency-dependent
// fraction of them into 32B re-fetches (§3.3), and such a miss marks the
// lane as streaming zero-copy data.
func (w *Warp) mruHit(lane int, sector uint64, zc bool) bool {
	bit := uint32(1) << uint(lane)
	if w.mruValid&bit != 0 && w.mru[lane] == sector {
		if zc {
			w.ks.ZCSectorReuses++
		}
		return true
	}
	w.mru[lane] = sector
	w.mruValid |= bit
	if zc {
		w.zcLanes |= bit
	}
	return false
}

// emit sorts and deduplicates the n touched sectors in w.sectors and
// issues one request per contiguous sector run within a 128B line. With
// the reorder stage enabled, off-device runs are buffered in the window
// instead (reorder.go) and dispatched line-regrouped at flush time;
// on-device and UVM runs always dispatch immediately (UVM page state is
// dispatch-order-dependent). sp is the buffer's space when uniform is
// true; otherwise each run resolves its own. sorted says the caller filled
// the sectors strictly ascending — lanes reading consecutive elements, as
// the merged kernels and the sorted neighbor lists' atomics do — so the
// sort and compaction would leave them unchanged and are skipped.
func (w *Warp) emit(buf *memsys.Buffer, sp memsys.Space, uniform bool, n int, sorted bool) {
	if n == 0 {
		return
	}
	s := w.sectors[:n]
	if !sorted {
		slices.Sort(s)
		s = slices.Compact(s)
	}
	m := len(s)
	if uniform && sp == memsys.SpaceGPU {
		// Device memory only counts bytes, so the run grouping is moot.
		w.ks.HBMBytes += uint64(m * memsys.SectorBytes)
		return
	}
	runStart := 0
	for i := 1; i <= m; i++ {
		if i < m && s[i] == s[i-1]+1 && s[i]>>2 == s[runStart]>>2 {
			continue
		}
		first := s[runStart]
		if !uniform {
			sp = buf.SpaceAt(int64(first<<5 - buf.Base))
		}
		if w.reorderCap > 0 && (sp == memsys.SpaceHostPinned || sp == memsys.SpaceCXL) {
			w.reorderPush(buf, s, runStart, i)
		} else {
			w.dispatch(buf, sp, first<<5, (i-runStart)*memsys.SectorBytes)
		}
		runStart = i
	}
}

// dispatch performs the accounting for one coalesced request of buf served
// from space sp — the buffer's static space, or the substrate its
// transport policy bound the containing segment to. A request never spans
// two segments: coalescing keeps requests within one 128B cache line and
// segments are cache-line multiples.
func (w *Warp) dispatch(buf *memsys.Buffer, sp memsys.Space, addr uint64, size int) {
	d := w.dev
	ks := w.ks
	switch sp {
	case memsys.SpaceGPU:
		ks.HBMBytes += uint64(size)

	case memsys.SpaceHostPinned:
		w.hostReqs++
		ks.PCIeRequests++
		ks.PCIePayloadBytes += uint64(size)
		w.zcBySize[size/memsys.SectorBytes-1]++
		ks.HostDRAMBytes += uint64(d.hostDRAM.ServedBytes(size))
		w.mon.Record(size, d.link.TLPOverheadBytes)
		if h := d.link.Faults; h != nil {
			// The decision is keyed by (epoch, warp, seq), not call order,
			// so the injected fault set — and the merged counts — are
			// identical for every worker count. A failed completion still
			// occupied the wire; only the usability of the data changes.
			switch h.RequestFault(d.runEpoch, w.id, w.faultSeq, size) {
			case pcie.ReqFail:
				ks.FaultedReads++
			case pcie.ReqSpike:
				ks.LatencySpikes++
			}
			w.faultSeq++
		}

	case memsys.SpaceUVM:
		off := int64(addr - buf.Base)
		if w.touches != nil {
			// Parallel chunk: log the touch for the ordered replay at the
			// launch barrier. Nothing the warp does next depends on the
			// outcome (page residency feeds only the counters).
			w.touches.add(buf, off, size, w.mon, int64(d.uvmgr.Config().PageBytes))
		} else {
			d.touchUVM(ks, w.mon, buf, off, size)
		}
		// After migration the access is served from GPU memory.
		ks.HBMBytes += uint64(size)

	case memsys.SpaceCXL:
		// Coalesced read served directly by the external CXL-class tier:
		// same shape as the zero-copy case, but crossing the CXL link and
		// the expander's DRAM. CXL sector reuse is not fed into the L2
		// thrash model (a deliberate simplification: CXL-homed segments
		// are the cold tail, whose reuse is rare by construction).
		cxlT := d.cfg.Tiers.CXL()
		w.cxlReqs++
		ks.CXLRequests++
		ks.CXLPayloadBytes += uint64(size)
		w.cxlBySize[size/memsys.SectorBytes-1]++
		ks.CXLMemBytes += uint64(cxlT.Mem.ServedBytes(size))
		w.mon.RecordClassN(size, cxlT.Link.TLPOverheadBytes, 1, pcie.ClassCXL)

	default:
		panic(fmt.Sprintf("gpu: access to buffer %q in unknown space %d", buf.Name, buf.Space))
	}
}

// touchUVM services one coalesced request of buf at off against the UVM
// manager and charges what it migrated to ks and mon: migration, hit and
// eviction counts, link and CXL bytes, wire/tag or serialized-handler
// seconds, and the bulk monitor records. The serial path calls it inline
// from dispatch; a parallel launch replays its chunks' logged touches
// through it at the barrier in ascending chunk order, which is the serial
// warp order. The float seconds added here are the only ones a launch
// accumulates before finish, so both paths sum them in the same order, bit
// for bit.
func (d *Device) touchUVM(ks *KernelStats, mon *pcie.Monitor, buf *memsys.Buffer, off int64, size int) {
	migrated, hits, evicted := d.uvmgr.Touch(buf, off, size)
	ks.UVMHits += uint64(hits)
	ks.UVMEvictions += uint64(evicted)
	if migrated == 0 {
		return
	}
	bytes := d.uvmgr.MigrationWireBytes(migrated)
	ks.UVMMigrations += uint64(migrated)
	// Pages migrate over the link of the tier the segment is homed on:
	// host DRAM behind PCIe, or the CXL expander behind its own link.
	lnk := d.link
	fromCXL := buf.HomeAt(off) == memsys.SpaceCXL
	if fromCXL {
		lnk = d.cfg.Tiers.CXL().Link
		ks.CXLPayloadBytes += uint64(bytes)
		ks.CXLWireSeconds += lnk.BulkSeconds(bytes)
		ks.CXLMemBytes += uint64(bytes)
		mon.RecordBulkClass(bytes, lnk.TLPOverheadBytes, pcie.ClassCXL)
	} else {
		ks.PCIePayloadBytes += uint64(bytes)
		ks.WireSeconds += lnk.BulkSeconds(bytes)
		ks.HostDRAMBytes += uint64(bytes)
		mon.RecordBulkClass(bytes, lnk.TLPOverheadBytes, pcie.ClassUVM)
	}
	ucfg := d.uvmgr.Config()
	if ucfg.GPUDriven {
		// GPU-driven paging (GPUVM): the device posts the page reads
		// itself, so they cost link tag occupancy — one full-size request
		// per 128 bytes — instead of waiting on the CPU handler. UVM
		// throughput then scales with the interconnect.
		tagOcc := float64(migrated) * float64(ucfg.PageBytes/128) * lnk.TagSeconds()
		if fromCXL {
			ks.CXLTagSeconds += tagOcc
		} else {
			ks.TagSeconds += tagOcc
		}
	} else {
		// The single-threaded UVM driver serializes fault handling with
		// the page transfer (§2.2): the pipeline term is handler cost plus
		// transfer time per page, which is what keeps UVM at ~9.1 GB/s
		// even though the wire could do 12.3 (Figure 4) and what prevents
		// UVM from scaling to PCIe 4.0 (Figure 12).
		ks.UVMSerialSeconds += d.uvmgr.FaultCPUTime(migrated).Seconds() +
			lnk.BulkSeconds(bytes)
	}
}

// --- typed gathers, scatters, scalars, atomics ---

// GatherU64 loads 64-bit elements: lane i reads buf[idx[i]] when active.
func (w *Warp) GatherU64(buf *memsys.Buffer, idx *[WarpSize]int64, mask Mask) [WarpSize]uint64 {
	w.access(buf, idx, 3, mask, false)
	var out [WarpSize]uint64
	for m := uint32(mask); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		out[i] = buf.AtomicU64(idx[i])
	}
	return out
}

// GatherU32 loads 32-bit elements: lane i reads buf[idx[i]] when active.
func (w *Warp) GatherU32(buf *memsys.Buffer, idx *[WarpSize]int64, mask Mask) [WarpSize]uint32 {
	w.access(buf, idx, 2, mask, false)
	var out [WarpSize]uint32
	for m := uint32(mask); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		out[i] = buf.AtomicU32(idx[i])
	}
	return out
}

// GatherRange is the merged kernels' gather (§4.3.1): lanes lo..hi-1
// (0 <= lo <= hi <= WarpSize) read the consecutive elements base+lo … base+hi-1 of buf into
// out[lo:hi], leaving the other lanes of out as they were. Elements are
// elemBytes (4 or 8) wide; 8-byte elements keep their low 32 bits, the
// vertex IDs of a 64-bit edge list. The traffic is exactly that of
// GatherU32 or GatherU64 with idx[l] = base+l under lanes lo..hi-1.
func (w *Warp) GatherRange(buf *memsys.Buffer, elemBytes int, base int64, lo, hi int, out *[WarpSize]uint32) {
	if elemBytes == 8 {
		w.accessRange(buf, base, 3, lo, hi, false)
		for l := lo; l < hi; l++ {
			out[l] = uint32(buf.AtomicU64(base + int64(l)))
		}
		return
	}
	w.accessRange(buf, base, 2, lo, hi, false)
	for l := lo; l < hi; l++ {
		out[l] = buf.AtomicU32(base + int64(l))
	}
}

// ScatterU32 stores 32-bit elements: lane i writes val[i] to buf[idx[i]].
func (w *Warp) ScatterU32(buf *memsys.Buffer, idx *[WarpSize]int64, val *[WarpSize]uint32, mask Mask) {
	w.access(buf, idx, 2, mask, true)
	for m := uint32(mask); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		buf.AtomicPutU32(idx[i], val[i])
	}
}

// ScalarU64 loads one 64-bit element through lane 0 (a uniform load
// broadcast to the warp).
func (w *Warp) ScalarU64(buf *memsys.Buffer, idx int64) uint64 {
	w.accessOne(buf, idx, 3, false)
	return buf.AtomicU64(idx)
}

// ScalarU32 loads one 32-bit element through lane 0.
func (w *Warp) ScalarU32(buf *memsys.Buffer, idx int64) uint32 {
	w.accessOne(buf, idx, 2, false)
	return buf.AtomicU32(idx)
}

// PairU64 loads buf[idx] and buf[idx+1] through two lanes — the classic
// "start = offset[v]; end = offset[v+1]" neighbor-list bounds read, which
// usually coalesces into a single request.
func (w *Warp) PairU64(buf *memsys.Buffer, idx int64) (uint64, uint64) {
	w.accessRange(buf, idx, 3, 0, 2, false)
	return buf.AtomicU64(idx), buf.AtomicU64(idx + 1)
}

// StoreScalarU32 stores one 32-bit element through lane 0.
func (w *Warp) StoreScalarU32(buf *memsys.Buffer, idx int64, v uint32) {
	w.accessOne(buf, idx, 2, true)
	buf.AtomicPutU32(idx, v)
}

// sectorCount counts the distinct sectors of an atomic's lanes as its
// lane loop applies them, in ascending lane order, while the sectors do
// not descend — a visitor's atomics on a sorted neighbor list. desc
// records that one did, and the count is then unused.
type sectorCount struct {
	n, last uint64
	desc    bool
}

func (c *sectorCount) add(addr uint64) {
	switch s := addr >> 5; {
	case c.n == 0 || s > c.last:
		c.n++
		c.last = s
	case s < c.last:
		c.desc = true
	}
}

// chargeAtomic charges an atomic's traffic after its lane loop counted the
// lanes' sectors in c. Uniform device memory only counts the distinct
// sectors' bytes (see emit), so unless they descended it takes c's count;
// every other case runs access. The loop applies data only, so charging
// after it is charging before it.
func (w *Warp) chargeAtomic(buf *memsys.Buffer, idx *[WarpSize]int64, elemShift uint, mask Mask, c *sectorCount) {
	if sp, uniform := buf.UniformSpace(); uniform && sp == memsys.SpaceGPU && !c.desc {
		w.ks.WarpInstrs++
		w.ks.HBMBytes += c.n * memsys.SectorBytes
		return
	}
	w.access(buf, idx, elemShift, mask, true)
}

// RelaxMinU32 performs per-lane atomicMin on buf[idx[i]] with val[i] and
// returns the lanes whose value it lowered: the lanes where val[i] was
// below the previous value, CUDA's `atomicMin(&a[i], v) > v` test. Within
// one warp, lanes are applied in ascending order — one legal
// serialization of the hardware's arbitrary order; across warps the CAS
// loop serializes arbitrarily. The final buffer state is
// order-independent (min commutes), but which lanes win is not: callers
// must only use the mask in order-insensitive ways (see DESIGN.md,
// "Parallel execution engine").
func (w *Warp) RelaxMinU32(buf *memsys.Buffer, idx *[WarpSize]int64, val *[WarpSize]uint32, mask Mask) Mask {
	var won Mask
	var c sectorCount
	for m := uint32(mask); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		c.add(buf.Base + uint64(idx[i])<<2)
		if v := val[i]; v < buf.AtomicMinU32(idx[i], v) {
			won |= 1 << uint(i)
		}
	}
	w.chargeAtomic(buf, idx, 2, mask, &c)
	return won
}

// RelaxMaxU32 is RelaxMinU32 with atomicMax: it returns the lanes whose
// value it raised, under the same ordering caveats.
func (w *Warp) RelaxMaxU32(buf *memsys.Buffer, idx *[WarpSize]int64, val *[WarpSize]uint32, mask Mask) Mask {
	var won Mask
	var c sectorCount
	for m := uint32(mask); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		c.add(buf.Base + uint64(idx[i])<<2)
		if v := val[i]; v > buf.AtomicMaxU32(idx[i], v) {
			won |= 1 << uint(i)
		}
	}
	w.chargeAtomic(buf, idx, 2, mask, &c)
	return won
}

// AtomicOrLanesU32 is a per-lane atomicOr on buf[idx[i]] whose traffic is
// that of every lane in mask but whose data effect is v on the lanes in
// set only: the other lanes OR in zero, which leaves their words as they
// were. It is how a visitor publishes a relax's winners — a next-frontier
// bit — while its requests depend on mask alone. Like min, OR commutes, so
// the final buffer state is independent of warp execution order.
func (w *Warp) AtomicOrLanesU32(buf *memsys.Buffer, idx *[WarpSize]int64, v uint32, mask, set Mask) {
	var c sectorCount
	for m := uint32(mask); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		c.add(buf.Base + uint64(idx[i])<<2)
		if set.Has(i) {
			buf.AtomicOrU32(idx[i], v)
		}
	}
	w.chargeAtomic(buf, idx, 2, mask, &c)
}

// AtomicOrLanesU64 is AtomicOrLanesU32 on 64-bit elements. The batched
// traversal engine uses it to set a query lane's bit in the next-frontier
// bitmask words of the destinations that query improved.
func (w *Warp) AtomicOrLanesU64(buf *memsys.Buffer, idx *[WarpSize]int64, v uint64, mask, set Mask) {
	var c sectorCount
	for m := uint32(mask); m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		c.add(buf.Base + uint64(idx[i])<<3)
		if set.Has(i) {
			buf.AtomicOrU64(idx[i], v)
		}
	}
	w.chargeAtomic(buf, idx, 3, mask, &c)
}

// AtomicOrScalarU32 performs one atomicOr on buf[idx] through lane 0.
func (w *Warp) AtomicOrScalarU32(buf *memsys.Buffer, idx int64, v uint32) uint32 {
	w.accessOne(buf, idx, 2, true)
	return buf.AtomicOrU32(idx, v)
}
