package gpu

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/memsys"
	"repro/internal/pcie"
)

// refWarp is the reference coalescer: the lane-loop implementation the
// production access/dispatch replaced. It visits all 32 lanes with
// Mask.Has, takes a per-call byte-offset array, marks an empty MRU slot
// with an invalid sector, and resolves the buffer's space per lane and
// again per request. It shares the embedded Warp's counters, monitor,
// size-class counts and reorder window, so a launch body that drives it
// leaves exactly the trail the production coalescer must leave.
type refWarp struct {
	*Warp
	mru     [WarpSize]uint64
	sectors [2 * WarpSize]uint64
}

const refInvalidSector = ^uint64(0)

func newRefWarp(w *Warp) *refWarp {
	r := &refWarp{Warp: w}
	r.resetMRU()
	return r
}

func (r *refWarp) resetMRU() {
	for i := range r.mru {
		r.mru[i] = refInvalidSector
	}
}

func (r *refWarp) access(buf *memsys.Buffer, off *[WarpSize]int64, mask Mask, write bool) {
	r.ks.WarpInstrs++
	if mask == 0 {
		return
	}
	n := 0
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		addr := buf.Base + uint64(off[lane])
		sector := addr >> 5
		if !write {
			if r.mru[lane] == sector {
				if buf.SpaceAt(off[lane]) == memsys.SpaceHostPinned {
					r.ks.ZCSectorReuses++
				}
				continue
			}
			r.mru[lane] = sector
			if buf.SpaceAt(off[lane]) == memsys.SpaceHostPinned {
				r.zcLanes |= 1 << uint(lane)
			}
		}
		r.sectors[n] = sector
		n++
	}
	if n == 0 {
		return
	}
	s := r.sectors[:n]
	for i := 1; i < n; i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
	m := 1
	for i := 1; i < n; i++ {
		if s[i] != s[m-1] {
			s[m] = s[i]
			m++
		}
	}
	s = s[:m]
	runStart := 0
	for i := 1; i <= m; i++ {
		if i < m && s[i] == s[i-1]+1 && s[i]>>2 == s[runStart]>>2 {
			continue
		}
		first := s[runStart]
		if r.reorderCap > 0 {
			sp := buf.SpaceAt(int64(first<<5 - buf.Base))
			if sp == memsys.SpaceHostPinned || sp == memsys.SpaceCXL {
				r.reorderPush(buf, s, runStart, i)
				runStart = i
				continue
			}
		}
		size := (i - runStart) * memsys.SectorBytes
		r.dispatch(buf, first<<5, size)
		runStart = i
	}
}

func (r *refWarp) dispatch(buf *memsys.Buffer, addr uint64, size int) {
	d := r.dev
	ks := r.ks
	switch buf.SpaceAt(int64(addr - buf.Base)) {
	case memsys.SpaceGPU:
		ks.HBMBytes += uint64(size)

	case memsys.SpaceHostPinned:
		r.hostReqs++
		ks.PCIeRequests++
		ks.PCIePayloadBytes += uint64(size)
		r.zcBySize[size/memsys.SectorBytes-1]++
		ks.HostDRAMBytes += uint64(d.hostDRAM.ServedBytes(size))
		r.mon.Record(size, d.link.TLPOverheadBytes)
		if h := d.link.Faults; h != nil {
			switch h.RequestFault(d.runEpoch, r.id, r.faultSeq, size) {
			case pcie.ReqFail:
				ks.FaultedReads++
			case pcie.ReqSpike:
				ks.LatencySpikes++
			}
			r.faultSeq++
		}

	case memsys.SpaceUVM:
		off := int64(addr - buf.Base)
		pb := int64(d.uvmgr.Config().PageBytes)
		migrated, hits, evicted := d.uvmgr.Touch(buf, off, size)
		ks.UVMEvictions += uint64(evicted)
		if migrated > 0 {
			bytes := d.uvmgr.MigrationWireBytes(migrated)
			ks.UVMMigrations += uint64(migrated)
			lnk := d.link
			fromCXL := buf.HomeAt(off) == memsys.SpaceCXL
			if fromCXL {
				lnk = d.cfg.Tiers.CXL().Link
				ks.CXLPayloadBytes += uint64(bytes)
				ks.CXLWireSeconds += lnk.BulkSeconds(bytes)
				ks.CXLMemBytes += uint64(bytes)
				r.mon.RecordBulkClass(bytes, lnk.TLPOverheadBytes, pcie.ClassCXL)
			} else {
				ks.PCIePayloadBytes += uint64(bytes)
				ks.WireSeconds += lnk.BulkSeconds(bytes)
				ks.HostDRAMBytes += uint64(bytes)
				r.mon.RecordBulkClass(bytes, lnk.TLPOverheadBytes, pcie.ClassUVM)
			}
			if d.uvmgr.Config().GPUDriven {
				tagOcc := float64(migrated) * float64(pb/128) * lnk.TagSeconds()
				if fromCXL {
					ks.CXLTagSeconds += tagOcc
				} else {
					ks.TagSeconds += tagOcc
				}
			} else {
				ks.UVMSerialSeconds += d.uvmgr.FaultCPUTime(migrated).Seconds() +
					lnk.BulkSeconds(bytes)
			}
		}
		ks.UVMHits += uint64(hits)
		ks.HBMBytes += uint64(size)

	case memsys.SpaceCXL:
		cxlT := d.cfg.Tiers.CXL()
		r.cxlReqs++
		ks.CXLRequests++
		ks.CXLPayloadBytes += uint64(size)
		r.cxlBySize[size/memsys.SectorBytes-1]++
		ks.CXLMemBytes += uint64(cxlT.Mem.ServedBytes(size))
		r.mon.RecordClassN(size, cxlT.Link.TLPOverheadBytes, 1, pcie.ClassCXL)

	default:
		panic(fmt.Sprintf("gpu: access to buffer %q in unknown space %d", buf.Name, buf.Space))
	}
}

func (r *refWarp) reorderPush(buf *memsys.Buffer, s []uint64, lo, hi int) {
	if len(r.reorder)+(hi-lo) > r.reorderCap {
		r.flushReorder()
	}
	for j := lo; j < hi; j++ {
		r.reorder = append(r.reorder, reorderEntry{buf: buf, sector: s[j]})
	}
	r.reorderBase++
	if len(r.reorder) >= r.reorderCap {
		r.flushReorder()
	}
}

func (r *refWarp) flushReorder() {
	n := len(r.reorder)
	if n == 0 {
		return
	}
	e := r.reorder
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
	m := 1
	for i := 1; i < n; i++ {
		if e[i].sector != e[m-1].sector {
			e[m] = e[i]
			m++
		}
	}
	e = e[:m]
	emitted := uint64(0)
	runStart := 0
	for i := 1; i <= m; i++ {
		if i < m && e[i].sector == e[i-1].sector+1 &&
			e[i].sector>>2 == e[runStart].sector>>2 &&
			e[i].buf == e[runStart].buf {
			continue
		}
		first := e[runStart].sector
		size := (i - runStart) * memsys.SectorBytes
		r.dispatch(e[runStart].buf, first<<5, size)
		emitted++
		runStart = i
	}
	ks := r.ks
	ks.ReorderFlushes++
	ks.ReorderWindowSectors += uint64(n)
	if r.reorderBase > emitted {
		ks.ReorderMerged += r.reorderBase - emitted
	}
	r.reorder = r.reorder[:0]
	r.reorderBase = 0
}

// --- differential harness ---

// Coalescer buffer layouts exercised by FuzzCoalescer.
const (
	layoutHBM       = iota // uniform device memory
	layoutPinned           // uniform host-pinned (zero-copy)
	layoutUVM              // UVM-managed, homed in host DRAM
	layoutSegmented        // host-pinned with DRAM/CXL segment homes
	layoutUVMHomed         // UVM-managed with DRAM/CXL segment homes
	layoutRouted           // table router over HBM/DRAM/UVM/CXL
	numLayouts
)

// coalBufBytes is each fuzz buffer's size: four 64 KiB segments.
const coalBufBytes = 4 * memsys.SegmentBytes

// coalOp is one generated warp memory instruction. Lane ops read idx
// under mask; range ops read lanes lo..hi-1 at rangeBase()+l; scalar and
// pair ops read scalar. val holds the relax candidates, and the OR-lanes
// ops set bit in the words of the lanes in set (a subset of mask).
type coalOp struct {
	kind   byte
	buf    int
	idx    [WarpSize]int64
	val    [WarpSize]uint32
	scalar int64
	lo, hi int
	mask   Mask
	set    Mask
	bit    uint
}

const (
	opGatherU32 = iota
	opGatherU64
	opGatherRangeU32
	opGatherRangeU64
	opScatterU32
	opRelaxMinU32
	opRelaxMaxU32
	opOrLanesU32
	opOrLanesU64
	opScalarU32
	opScalarU64
	opPairU64
	opStoreScalarU32
	opAtomicOrScalarU32
	opInvalidateMRU
	numCoalOps
)

// coalValRange bounds the relax candidates and the buffers' initial words
// (coalFill), so min and max relaxes both win and lose.
const coalValRange = 1 << 10

// elemShift returns the element width of op kind k as a shift.
func elemShift(k byte) uint {
	switch k {
	case opGatherU64, opGatherRangeU64, opOrLanesU64, opScalarU64, opPairU64:
		return 3
	}
	return 2
}

// rangeBase is a range op's element index of lane 0, placed so lane 31
// still lies inside the buffer.
func (op *coalOp) rangeBase() int64 {
	return op.scalar % (coalBufBytes>>elemShift(op.kind) - WarpSize)
}

// rangeIdx is a range op as a lane op: the explicit index array and mask
// of lanes lo..hi-1.
func (op *coalOp) rangeIdx() (idx [WarpSize]int64, mask Mask) {
	base := op.rangeBase()
	for l := op.lo; l < op.hi; l++ {
		idx[l] = base + int64(l)
	}
	return idx, MaskFirstN(op.hi) &^ MaskFirstN(op.lo)
}

// genOp draws one instruction of kind k from r. Index patterns mix the
// merged (consecutive), strided, clustered, broadcast and random shapes the
// traversal kernels produce, plus descending and nearly ascending ones (one
// swapped lane pair), whose out-of-order sectors take the coalescer's
// sorting path; masks mix full, prefix, random, single-lane and empty, and
// lane ranges mix full, empty, and the aligned walk's underflow-guarded
// ones. Every other op revisits prev's elements, one or two elements on,
// so lanes hit their MRU sector, and a scalar, pair or range op of the
// other element width revisits prev's bytes, so lanes of both widths meet
// in one sector (a range record's partial hits across widths).
func genOp(r *rand.Rand, k byte, prev *coalOp) coalOp {
	n := int64(coalBufBytes >> elemShift(k))
	if r.Intn(2) == 0 {
		op := *prev
		op.kind = k
		op.scalar = op.scalar << elemShift(prev.kind) >> elemShift(k)
		step := int64(r.Intn(3))
		for l := range op.idx {
			op.idx[l] = (op.idx[l] + step) % n
		}
		op.scalar = (op.scalar + step) % (n - 1)
		return op
	}
	op := coalOp{kind: k, buf: r.Intn(2)}
	switch r.Intn(5) {
	case 0:
		op.mask = MaskFull
	case 1:
		op.mask = MaskFirstN(r.Intn(WarpSize + 1))
	case 2:
		op.mask = Mask(r.Uint32())
	case 3:
		op.mask = Mask(1) << uint(r.Intn(WarpSize))
	default:
		op.mask = MaskNone
	}
	base := r.Int63n(n)
	stride := int64(1 + r.Intn(40))
	pattern := r.Intn(7)
	for l := range op.idx {
		var i int64
		switch pattern {
		case 0:
			i = base + int64(l)
		case 1, 5:
			i = base + int64(l)*stride
		case 2:
			i = base + r.Int63n(64)
		case 3:
			i = base
		case 4:
			i = r.Int63n(n)
		default:
			i = base + int64(WarpSize-1-l)*stride
		}
		op.idx[l] = i % n
		op.val[l] = uint32(r.Intn(coalValRange))
	}
	if pattern == 5 {
		l := r.Intn(WarpSize - 1)
		op.idx[l], op.idx[l+1] = op.idx[l+1], op.idx[l]
	}
	op.scalar = base % (n - 1) // PairU64 also reads scalar+1
	if r.Intn(3) == 0 {
		op.lo, op.hi = 0, WarpSize
	} else {
		op.lo = r.Intn(WarpSize + 1)
		op.hi = op.lo + r.Intn(WarpSize+1-op.lo)
	}
	op.set = op.mask & Mask(r.Uint32())
	op.bit = uint(r.Intn(64))
	return op
}

// coalLog records what a warp's instructions returned — gathered values,
// loaded scalars and relax win masks — for the serial differential runs;
// nil on parallel runs, where other warps' racing writes make them
// order-dependent.
type coalLog []uint64

func (l *coalLog) add(v uint64) {
	if l != nil {
		*l = append(*l, v)
	}
}

func (l *coalLog) lanes(vals []uint32) {
	for _, v := range vals {
		l.add(uint64(v))
	}
}

// apply runs op through the production warp API. With lanes set, range,
// scalar and pair ops go through the lane path instead, given their
// explicit index arrays (applyLanes).
func (op *coalOp) apply(w *Warp, bufs [2]*memsys.Buffer, lanes bool, log *coalLog) {
	b := bufs[op.buf]
	if lanes && op.applyLanes(w, b, log) {
		return
	}
	switch op.kind {
	case opGatherU32:
		got := w.GatherU32(b, &op.idx, op.mask)
		for m := op.mask; m != 0; m &= m - 1 {
			log.add(uint64(got[bits.TrailingZeros32(uint32(m))]))
		}
	case opGatherU64:
		got := w.GatherU64(b, &op.idx, op.mask)
		for m := op.mask; m != 0; m &= m - 1 {
			log.add(got[bits.TrailingZeros32(uint32(m))])
		}
	case opGatherRangeU32, opGatherRangeU64:
		var out [WarpSize]uint32
		w.GatherRange(b, 1<<elemShift(op.kind), op.rangeBase(), op.lo, op.hi, &out)
		log.lanes(out[op.lo:op.hi])
	case opScatterU32:
		w.ScatterU32(b, &op.idx, &op.val, op.mask)

	case opRelaxMinU32:
		log.add(uint64(w.RelaxMinU32(b, &op.idx, &op.val, op.mask)))
	case opRelaxMaxU32:
		log.add(uint64(w.RelaxMaxU32(b, &op.idx, &op.val, op.mask)))
	case opOrLanesU32:
		w.AtomicOrLanesU32(b, &op.idx, 1<<(op.bit%32), op.mask, op.set)
	case opOrLanesU64:
		w.AtomicOrLanesU64(b, &op.idx, 1<<op.bit, op.mask, op.set)

	case opScalarU32:
		log.add(uint64(w.ScalarU32(b, op.scalar)))
	case opScalarU64:
		log.add(w.ScalarU64(b, op.scalar))
	case opPairU64:
		x, y := w.PairU64(b, op.scalar)
		log.add(x)
		log.add(y)
	case opStoreScalarU32:
		w.StoreScalarU32(b, op.scalar, 1)
	case opAtomicOrScalarU32:
		w.AtomicOrScalarU32(b, op.scalar, 1)
	case opInvalidateMRU:
		w.InvalidateMRU()
	}
}

// applyLanes runs a range, scalar or pair op through the production lane
// path with the explicit index array the range path derives from its
// bounds, and reports whether op was one of those.
func (op *coalOp) applyLanes(w *Warp, b *memsys.Buffer, log *coalLog) bool {
	var idx [WarpSize]int64
	switch op.kind {
	case opGatherRangeU32:
		idx, mask := op.rangeIdx()
		got := w.GatherU32(b, &idx, mask)
		log.lanes(got[op.lo:op.hi])
	case opGatherRangeU64:
		idx, mask := op.rangeIdx()
		got := w.GatherU64(b, &idx, mask)
		for l := op.lo; l < op.hi; l++ {
			log.add(uint64(uint32(got[l])))
		}
	case opScalarU32:
		idx[0] = op.scalar
		log.add(uint64(w.GatherU32(b, &idx, 1)[0]))
	case opScalarU64:
		idx[0] = op.scalar
		log.add(w.GatherU64(b, &idx, 1)[0])
	case opPairU64:
		idx[0], idx[1] = op.scalar, op.scalar+1
		got := w.GatherU64(b, &idx, 3)
		log.add(got[0])
		log.add(got[1])
	case opStoreScalarU32:
		idx[0] = op.scalar
		val := [WarpSize]uint32{1}
		w.ScatterU32(b, &idx, &val, 1)
	case opAtomicOrScalarU32:
		idx[0] = op.scalar
		w.AtomicOrLanesU32(b, &idx, 1, 1, 1)
	default:
		return false
	}
	return true
}

// applyRef runs op through the reference coalescer — the same lanes, byte
// offsets and read/write flag the production wrapper derives — and applies
// its data effect the way the array-returning warp API did: lanes in
// ascending order, each relax winning when its value beat the old word,
// and every OR lane ORing its own value (zero outside set).
func (op *coalOp) applyRef(r *refWarp, bufs [2]*memsys.Buffer, log *coalLog) {
	b := bufs[op.buf]
	var off [WarpSize]int64
	shift := elemShift(op.kind)
	switch op.kind {
	case opInvalidateMRU:
		r.resetMRU()
		return
	case opScalarU32, opScalarU64, opStoreScalarU32, opAtomicOrScalarU32:
		off[0] = op.scalar << shift
		r.access(b, &off, 1, op.kind == opStoreScalarU32 || op.kind == opAtomicOrScalarU32)
		switch op.kind {
		case opScalarU32:
			log.add(uint64(b.AtomicU32(op.scalar)))
		case opScalarU64:
			log.add(b.AtomicU64(op.scalar))
		case opStoreScalarU32:
			b.AtomicPutU32(op.scalar, 1)
		default:
			b.AtomicOrU32(op.scalar, 1)
		}
		return
	case opPairU64:
		off[0] = op.scalar << shift
		off[1] = (op.scalar + 1) << shift
		r.access(b, &off, 3, false)
		log.add(b.AtomicU64(op.scalar))
		log.add(b.AtomicU64(op.scalar + 1))
		return
	case opGatherRangeU32, opGatherRangeU64:
		idx, mask := op.rangeIdx()
		for l := op.lo; l < op.hi; l++ {
			off[l] = idx[l] << shift
		}
		r.access(b, &off, mask, false)
		for l := op.lo; l < op.hi; l++ {
			if shift == 3 {
				log.add(uint64(uint32(b.AtomicU64(idx[l]))))
			} else {
				log.add(uint64(b.AtomicU32(idx[l])))
			}
		}
		return
	}
	for l := range off {
		if op.mask.Has(l) {
			off[l] = op.idx[l] << shift
		}
	}
	r.access(b, &off, op.mask, op.kind != opGatherU32 && op.kind != opGatherU64)
	var won Mask
	for l := 0; l < WarpSize; l++ {
		if !op.mask.Has(l) {
			continue
		}
		i, v := op.idx[l], op.val[l]
		switch op.kind {
		case opGatherU32:
			log.add(uint64(b.AtomicU32(i)))
		case opGatherU64:
			log.add(b.AtomicU64(i))
		case opScatterU32:
			b.AtomicPutU32(i, v)
		case opRelaxMinU32:
			if old := b.AtomicMinU32(i, v); v < old {
				won = won.Set(l)
			}
		case opRelaxMaxU32:
			if old := b.AtomicMaxU32(i, v); v > old {
				won = won.Set(l)
			}
		case opOrLanesU32:
			bit := uint32(0)
			if op.set.Has(l) {
				bit = 1 << (op.bit % 32)
			}
			b.AtomicOrU32(i, bit)
		case opOrLanesU64:
			bit := uint64(0)
			if op.set.Has(l) {
				bit = 1 << op.bit
			}
			b.AtomicOrU64(i, bit)
		}
	}
	if op.kind == opRelaxMinU32 || op.kind == opRelaxMaxU32 {
		log.add(uint64(won))
	}
}

// coalOutcome is everything the coalescer can influence, captured after a
// fixed sequence of launches. MRU holds each warp's lane MRU sectors at its
// end (refInvalidSector for an empty slot), by launch and warp ID; Touches
// each parallel launch's chunk UVM touch logs. Results and Data — what the
// warps' instructions returned and the buffers' final contents — are kept
// on serial runs only.
type coalOutcome struct {
	Kernels  []KernelStats
	ZC, CXL  [][zcSizeClasses]uint64
	Total    KernelStats
	Clock    time.Duration
	Snapshot pcie.Snapshot
	Trace    []pcie.TraceEntry
	Dropped  uint64
	MRU      [][WarpSize]uint64
	Touches  [][]string
	Results  []coalLog
	Data     [2][]byte
}

// coalMode selects how runCoalescer executes the instruction stream.
type coalMode int

const (
	modeProd  coalMode = iota // production warp API
	modeLanes                 // production lane path for range, scalar and pair ops
	modeRef                   // reference coalescer
)

// coalBaseOffsets are the buffer base shifts the fuzzer draws from:
// sector- and line-aligned, 8 bytes into a sector, sector-aligned inside a
// line, and both off.
var coalBaseOffsets = [...]uint64{0, 8, 32, 72}

// coalDevice builds a three-tier device with the given launch workers and
// two adjacent buffers of the given layout, each base shifted by baseOff
// bytes and each 32-bit word initialized to a value below coalValRange.
// Device memory is small on the UVM layouts so the random working set
// forces evictions.
func coalDevice(layout, window, workers int, baseOff uint64) (*Device, [2]*memsys.Buffer) {
	hbm := int64(4 << 20)
	if layout == layoutUVM || layout == layoutUVMHomed || layout == layoutRouted {
		hbm = coalBufBytes / 2
	}
	two := memsys.TwoTier(hbm, 1<<30, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16())
	d := NewDevice(Config{
		Name:          "coalescer",
		Tiers:         memsys.ThreeTierCXL(two, 1<<30),
		Workers:       workers,
		ReorderWindow: window,
	})
	d.Monitor().EnableTrace(1 << 12)
	space := memsys.SpaceHostPinned
	switch layout {
	case layoutHBM:
		space = memsys.SpaceGPU
	case layoutUVM, layoutUVMHomed:
		space = memsys.SpaceUVM
	}
	var bufs [2]*memsys.Buffer
	for i := range bufs {
		b := d.Arena().MustAlloc(fmt.Sprintf("buf%d", i), space, coalBufBytes, memsys.WithBaseOffset(baseOff))
		for j := int64(0); j < coalBufBytes/4; j++ {
			b.PutU32(j, uint32(j*2654435761>>7)%coalValRange)
		}
		switch layout {
		case layoutSegmented, layoutUVMHomed:
			// Two segments on CXL and one explicitly in DRAM; the fourth
			// keeps the home the arena gives it.
			homes := [...]memsys.Space{memsys.SpaceCXL, memsys.SpaceHostPinned, memsys.SpaceCXL}
			for j, h := range homes {
				if err := d.Arena().SetSegmentHome(b, (i+j)%b.Segments(), h); err != nil {
					panic(err)
				}
			}
		case layoutRouted:
			routes := [...]memsys.Space{memsys.SpaceGPU, memsys.SpaceHostPinned, memsys.SpaceUVM, memsys.SpaceCXL}
			route := make([]memsys.Space, b.Segments())
			for j := range route {
				route[j] = routes[(j+i)%len(routes)]
			}
			b.SetRoute(route, memsys.SegmentShift)
		}
		bufs[i] = b
	}
	return d, bufs
}

// warpMRU is w's effective lane MRU in the reference's form: the range
// record's sector for its lanes, mru for the other valid lanes, and
// refInvalidSector for an empty slot.
func warpMRU(w *Warp) [WarpSize]uint64 {
	var m [WarpSize]uint64
	for l := range m {
		switch {
		case w.mruValid&(1<<uint(l)) == 0:
			m[l] = refInvalidSector
		case l >= w.rec.lo && l < w.rec.hi:
			m[l] = w.rec.sector(l)
		default:
			m[l] = w.mru[l]
		}
	}
	return m
}

// chunkTouches lists the UVM touch logs of a parallel launch's chunks.
func chunkTouches(d *Device, chunks int) []string {
	var out []string
	for c, sl := range d.slotPool[:chunks] {
		for _, t := range sl.uvm.touches {
			out = append(out, fmt.Sprintf("chunk %d: %s+%d size %d at %d x%d",
				c, sl.uvm.bufs[t.buf].Name, t.off, t.size, t.pos, t.n))
		}
	}
	return out
}

// coalStream passes warp slot's instructions to each, in issue order.
type coalStream func(slot int, each func(op *coalOp))

// genStream draws the instruction kinds in ops from a stream seeded by
// (seed, slot).
func genStream(seed int64, ops []byte) coalStream {
	return func(slot int, each func(op *coalOp)) {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(slot)))
		var op coalOp
		for _, k := range ops {
			op = genOp(r, k%numCoalOps, &op)
			each(&op)
		}
	}
}

// runCoalescer drives a fresh device through two launches of warps warps
// on the given launch workers, each warp slot (launch, warp) executing
// its instructions from stream in the given mode.
func runCoalescer(layout, window, workers int, baseOff uint64, warps int, stream coalStream, mode coalMode) coalOutcome {
	d, bufs := coalDevice(layout, window, workers, baseOff)
	serial := workers == 1
	out := coalOutcome{MRU: make([][WarpSize]uint64, 2*warps)}
	if serial {
		out.Results = make([]coalLog, 2*warps)
	}
	for launch := 0; launch < 2; launch++ {
		ks := d.Launch("coalesce", warps, func(w *Warp) {
			slot := launch*warps + w.ID()
			var log *coalLog
			if serial {
				out.Results[slot] = coalLog{}
				log = &out.Results[slot]
			}
			var rw *refWarp
			if mode == modeRef {
				rw = newRefWarp(w)
			}
			stream(slot, func(op *coalOp) {
				if mode == modeRef {
					op.applyRef(rw, bufs, log)
				} else {
					op.apply(w, bufs, mode == modeLanes, log)
				}
			})
			if mode == modeRef {
				rw.flushReorder()
				out.MRU[slot] = rw.mru
			} else {
				out.MRU[slot] = warpMRU(w)
			}
		})
		out.Kernels = append(out.Kernels, ks)
		if serial {
			out.ZC = append(out.ZC, d.serialZC)
			out.CXL = append(out.CXL, d.serialCXL)
		} else {
			out.Touches = append(out.Touches, chunkTouches(d, min(warps, workers*chunksPerWorker)))
		}
	}
	out.Total = d.Total()
	out.Clock = d.Clock()
	out.Snapshot = d.Monitor().Snapshot()
	out.Trace = slices.Clone(d.Monitor().Trace())
	out.Dropped = d.Monitor().TraceDropped()
	if serial {
		for i, b := range bufs {
			out.Data[i] = slices.Clone(b.Data)
		}
	}
	return out
}

// coalDiff names the outcome fields on which got and want differ, each
// with the start of both values, or returns "" when they are equal.
func coalDiff(got, want coalOutcome) string {
	clip := func(v any) string {
		s := fmt.Sprintf("%+v", v)
		if len(s) > 400 {
			s = s[:400] + "…"
		}
		return s
	}
	var b strings.Builder
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		g, w := gv.Field(i).Interface(), wv.Field(i).Interface()
		if !reflect.DeepEqual(g, w) {
			fmt.Fprintf(&b, "\n%s:\n got  %s\n want %s", gv.Type().Field(i).Name, clip(g), clip(w))
		}
	}
	return b.String()
}

// FuzzCoalescer drives the production coalescer and the reference lane-loop
// implementation with the same random instruction streams — masks, indices,
// 4- and 8-byte elements, lane gathers and contiguous range gathers, reads,
// writes, mask-returning relaxes and lane-selective ORs, scalar and pair
// loads, MRU invalidations and virtual-warp splits — over every buffer
// layout and base misalignment, with the reorder window off and on. The
// serial run must match the reference on kernel statistics, zero-copy and
// CXL per-size counts, monitor snapshots including the request trace's
// order, each warp's final MRU, every value and win mask the instructions
// returned (the reference applies the array-returning API's lane-order
// semantics), and the buffers' final contents. A parallel run (three
// workers, so UVM touches go through the chunk touch logs) must then match
// the same stream with the range, scalar and pair ops issued through the
// production lane path, given their explicit index arrays, on everything
// but the order-dependent values, touch logs included.
func FuzzCoalescer(f *testing.F) {
	all := make([]byte, numCoalOps)
	for i := range all {
		all[i] = byte(i)
	}
	reads := []byte{opGatherU32, opGatherU64, opScalarU32, opPairU64, opGatherU32, opGatherU64, opInvalidateMRU,
		opGatherU32, opGatherU32, opScalarU32, opScalarU32, opPairU64, opPairU64, opGatherU64, opGatherU64}
	// The merged walk: a pair load of the list bounds, then range gathers
	// of edges and weights, each followed by a relax, a frontier OR and
	// the convergence flag's OR.
	walk := []byte{opPairU64, opGatherRangeU64, opGatherRangeU32, opRelaxMinU32, opOrLanesU32, opAtomicOrScalarU32,
		opGatherRangeU64, opGatherRangeU64, opRelaxMaxU32, opOrLanesU64, opGatherRangeU32, opGatherRangeU32,
		opInvalidateMRU, opGatherRangeU32, opRelaxMinU32, opScalarU32, opGatherRangeU64, opStoreScalarU32}
	for layout := 0; layout < numLayouts; layout++ {
		for _, reorder := range []bool{false, true} {
			f.Add(uint8(layout), reorder, uint8(0), int64(layout+1), uint8(3), all)
			f.Add(uint8(layout), reorder, uint8(layout), int64(7*layout+5), uint8(2), reads)
		}
	}
	for layout := 0; layout < numLayouts; layout++ {
		for _, reorder := range []bool{false, true} {
			f.Add(uint8(layout), reorder, uint8(layout+1), int64(11*layout+3), uint8(3), walk)
		}
	}
	f.Fuzz(func(t *testing.T, layout uint8, reorder bool, misalign uint8, seed int64, warps uint8, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		l := int(layout % numLayouts)
		win := 0
		if reorder {
			win = 8
		}
		off := coalBaseOffsets[int(misalign)%len(coalBaseOffsets)]
		nw := int(warps%4) + 1
		stream := genStream(seed, ops)
		got := runCoalescer(l, win, 1, off, nw, stream, modeProd)
		want := runCoalescer(l, win, 1, off, nw, stream, modeRef)
		if d := coalDiff(got, want); d != "" {
			t.Fatalf("layout %d window %d base offset %d: coalescer diverged from the reference:%s", l, win, off, d)
		}
		got = runCoalescer(l, win, 3, off, nw+3, stream, modeProd)
		want = runCoalescer(l, win, 3, off, nw+3, stream, modeLanes)
		if d := coalDiff(got, want); d != "" {
			t.Fatalf("layout %d window %d base offset %d, 3 workers: range path diverged from the lane path:%s", l, win, off, d)
		}
	})
}

// TestRangeMRURecord pins the range read's affine MRU record against the
// reference coalescer on scripted streams, each run by two warps in each
// of two launches, over uniform host-pinned, uniform HBM and routed
// buffers at base offsets 0 and 8. Each script also states whether any of
// its reads hits on the host-pinned layout, where hits are counted, so a
// script cannot pass by missing the case it names.
func TestRangeMRURecord(t *testing.T) {
	rng := func(kind byte, buf int, base int64, lo, hi int) coalOp {
		return coalOp{kind: kind, buf: buf, scalar: base, lo: lo, hi: hi}
	}
	r32 := func(base int64, lo, hi int) coalOp { return rng(opGatherRangeU32, 0, base, lo, hi) }
	r64 := func(base int64, lo, hi int) coalOp { return rng(opGatherRangeU64, 0, base, lo, hi) }
	lanes := func(kind byte, base int64, mask Mask) coalOp {
		op := coalOp{kind: kind, mask: mask}
		for l := range op.idx {
			op.idx[l] = base + int64(l)
		}
		return op
	}
	scalar := func(kind byte, i int64) coalOp { return coalOp{kind: kind, scalar: i} }
	const (
		none = iota // no read hits
		some        // some lanes hit
	)
	cases := []struct {
		name   string
		script []coalOp
		hits   int
	}{
		{"re-read at delta 0", []coalOp{r32(100, 0, 32), r32(100, 0, 32)}, some},
		{"re-read inside the record", []coalOp{r32(100, 0, 32), r32(100, 9, 20)}, some},
		{"re-read over the record's edge", []coalOp{r32(100, 4, 12), r32(100, 0, 32)}, some},
		{"re-read at delta +4 bytes", []coalOp{r32(100, 0, 32), r32(101, 0, 32)}, some},
		{"re-read at delta -28 bytes", []coalOp{r32(100, 0, 32), r32(93, 0, 32)}, some},
		{"8-byte re-read at delta -24 bytes", []coalOp{r64(50, 0, 32), r64(47, 0, 32)}, some},
		{"re-read at delta 32 bytes", []coalOp{r32(100, 0, 32), r32(108, 0, 32)}, none},
		{"re-read at delta -64 bytes", []coalOp{r64(50, 0, 32), r64(42, 0, 32)}, none},
		{"8-byte then 4-byte over shared sectors", []coalOp{r64(50, 0, 32), r32(100, 0, 32)}, some},
		{"4-byte then 8-byte over shared sectors", []coalOp{r32(100, 0, 32), r64(50, 0, 32)}, some},
		{"4-byte then 8-byte, disjoint spans", []coalOp{r32(100, 0, 16), r64(60, 0, 16)}, none},
		{"lane path after a range", []coalOp{r32(100, 0, 32), lanes(opGatherU32, 100, MaskFull)}, some},
		{"scalar after a range", []coalOp{r64(50, 0, 32), scalar(opScalarU64, 50)}, some},
		{"pair after a range", []coalOp{r64(50, 0, 32), scalar(opPairU64, 50)}, some},
		{"range after the lane path", []coalOp{lanes(opGatherU32, 100, MaskFull), r32(100, 0, 32)}, some},
		{"range after a scalar", []coalOp{scalar(opScalarU32, 100), r32(100, 0, 32)}, some},
		{"range over a flattened record's low lanes", []coalOp{r32(100, 0, 32), rng(opGatherRangeU32, 1, 100, 16, 32), r32(100, 0, 16)}, some},
		{"range over a flattened record's high lanes", []coalOp{r32(100, 0, 32), rng(opGatherRangeU32, 1, 100, 0, 16), r32(100, 16, 32)}, some},
		{"range after a pair inside the record", []coalOp{r64(50, 0, 32), scalar(opPairU64, 200), r64(50, 0, 32)}, some},
		{"InvalidateMRU", []coalOp{r32(100, 0, 32), {kind: opInvalidateMRU}, r32(100, 0, 32)}, none},
		{"InvalidateMRU, then a scalar", []coalOp{r32(100, 0, 32), {kind: opInvalidateMRU}, scalar(opScalarU32, 100)}, none},
		{"warp boundary", []coalOp{r32(100, 0, 32), r64(50, 0, 32)}, some},
		{"warp boundary, one read", []coalOp{r32(100, 0, 32)}, none},
	}
	for _, tc := range cases {
		stream := func(_ int, each func(op *coalOp)) {
			for _, op := range tc.script {
				each(&op)
			}
		}
		for _, layout := range []int{layoutPinned, layoutHBM, layoutRouted} {
			for _, off := range []uint64{0, 8} {
				got := runCoalescer(layout, 0, 1, off, 2, stream, modeProd)
				want := runCoalescer(layout, 0, 1, off, 2, stream, modeRef)
				if d := coalDiff(got, want); d != "" {
					t.Errorf("%s, layout %d, base offset %d: diverged from the reference:%s", tc.name, layout, off, d)
				}
				if reuses := want.Total.ZCSectorReuses; layout == layoutPinned && (reuses > 0) != (tc.hits == some) {
					t.Errorf("%s, base offset %d: %d zero-copy hits; the script must hit %s", tc.name, off, reuses, map[int]string{none: "nowhere", some: "somewhere"}[tc.hits])
				}
			}
		}
	}
}
