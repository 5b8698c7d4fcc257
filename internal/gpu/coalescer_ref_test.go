package gpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		migrated, hits := d.uvmgr.Touch(buf, off, size)
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

// coalOp is one generated warp memory instruction.
type coalOp struct {
	kind   byte
	buf    int
	idx    [WarpSize]int64
	scalar int64
	mask   Mask
}

const (
	opGatherU32 = iota
	opGatherU64
	opScatterU32
	opAtomicMinU32
	opAtomicMaxU32
	opAtomicOrU32
	opAtomicOrU64
	opScalarU32
	opScalarU64
	opPairU64
	opStoreScalarU32
	opAtomicOrScalarU32
	opInvalidateMRU
	opSplitWorker
	numCoalOps
)

// elemShift returns the element width of op kind k as a shift.
func elemShift(k byte) uint {
	switch k {
	case opGatherU64, opAtomicOrU64, opScalarU64, opPairU64:
		return 3
	}
	return 2
}

// genOp draws one instruction of kind k from r. Index patterns mix the
// merged (consecutive), strided, clustered, broadcast and random shapes the
// traversal kernels produce, plus descending and nearly ascending ones (one
// swapped lane pair), whose out-of-order sectors take the coalescer's
// sorting path; masks mix full, prefix, random, single-lane and empty.
// Every other op revisits prev's elements, one or two elements on, so
// lanes hit their MRU sector.
func genOp(r *rand.Rand, k byte, prev *coalOp) coalOp {
	n := int64(coalBufBytes >> elemShift(k))
	if r.Intn(2) == 0 {
		op := *prev
		op.kind = k
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
	}
	if pattern == 5 {
		l := r.Intn(WarpSize - 1)
		op.idx[l], op.idx[l+1] = op.idx[l+1], op.idx[l]
	}
	op.scalar = base % (n - 1) // PairU64 also reads scalar+1
	return op
}

// apply runs op through the production coalescer.
func (op *coalOp) apply(w *Warp, bufs [2]*memsys.Buffer) {
	b := bufs[op.buf]
	var v32 [WarpSize]uint32
	var v64 [WarpSize]uint64
	switch op.kind {
	case opGatherU32:
		w.GatherU32(b, &op.idx, op.mask)
	case opGatherU64:
		w.GatherU64(b, &op.idx, op.mask)
	case opScatterU32:
		w.ScatterU32(b, &op.idx, &v32, op.mask)

	case opAtomicMinU32:
		w.AtomicMinU32(b, &op.idx, &v32, op.mask)
	case opAtomicMaxU32:
		w.AtomicMaxU32(b, &op.idx, &v32, op.mask)
	case opAtomicOrU32:
		w.AtomicOrU32(b, &op.idx, &v32, op.mask)
	case opAtomicOrU64:
		w.AtomicOrU64(b, &op.idx, &v64, op.mask)

	case opScalarU32:
		w.ScalarU32(b, op.scalar)
	case opScalarU64:
		w.ScalarU64(b, op.scalar)
	case opPairU64:
		w.PairU64(b, op.scalar)
	case opStoreScalarU32:
		w.StoreScalarU32(b, op.scalar, 1)
	case opAtomicOrScalarU32:
		w.AtomicOrScalarU32(b, op.scalar, 1)
	case opInvalidateMRU:
		w.InvalidateMRU()
	case opSplitWorker:
		w.SplitWorker()
	}
}

// applyRef runs op through the reference coalescer: the same lanes, byte
// offsets and read/write flag the production wrapper derives.
func (op *coalOp) applyRef(r *refWarp, bufs [2]*memsys.Buffer) {
	b := bufs[op.buf]
	var off [WarpSize]int64
	shift := elemShift(op.kind)
	switch op.kind {
	case opInvalidateMRU:
		r.resetMRU()
	case opSplitWorker:
		r.SplitWorker()
	case opScalarU32, opScalarU64, opStoreScalarU32, opAtomicOrScalarU32:
		off[0] = op.scalar << shift
		r.access(b, &off, 1, op.kind != opScalarU32 && op.kind != opScalarU64)
	case opPairU64:
		off[0] = op.scalar << shift
		off[1] = (op.scalar + 1) << shift
		r.access(b, &off, 3, false)
	default:
		for l := range off {
			if op.mask.Has(l) {
				off[l] = op.idx[l] << shift
			}
		}
		r.access(b, &off, op.mask, op.kind != opGatherU32 && op.kind != opGatherU64)
	}
}

// coalOutcome is everything the coalescer can influence, captured after a
// fixed sequence of launches.
type coalOutcome struct {
	Kernels  []KernelStats
	ZC, CXL  [][zcSizeClasses]uint64
	Total    KernelStats
	Clock    time.Duration
	Snapshot pcie.Snapshot
	Trace    []pcie.TraceEntry
	Dropped  uint64
}

// coalDevice builds a three-tier device and two adjacent buffers of the
// given layout. Device memory is small on the UVM layouts so the random
// working set forces evictions.
func coalDevice(layout, window int) (*Device, [2]*memsys.Buffer) {
	hbm := int64(4 << 20)
	if layout == layoutUVM || layout == layoutUVMHomed || layout == layoutRouted {
		hbm = coalBufBytes / 2
	}
	two := memsys.TwoTier(hbm, 1<<30, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16())
	d := NewDevice(Config{
		Name:          "coalescer",
		Tiers:         memsys.ThreeTierCXL(two, 1<<30),
		Workers:       1,
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
		b := d.Arena().MustAlloc(fmt.Sprintf("buf%d", i), space, coalBufBytes)
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

// runCoalescer drives a fresh device through two launches of warps warps,
// each warp executing the instruction kinds in ops drawn from a stream
// seeded by (seed, launch, warp), through the reference coalescer when ref
// is set and through the production one otherwise.
func runCoalescer(layout, window int, seed int64, warps int, ops []byte, ref bool) coalOutcome {
	d, bufs := coalDevice(layout, window)
	var out coalOutcome
	for launch := 0; launch < 2; launch++ {
		ks := d.Launch("coalesce", warps, func(w *Warp) {
			r := rand.New(rand.NewSource(seed*1_000_003 + int64(launch*warps+w.ID())))
			var rw *refWarp
			if ref {
				rw = newRefWarp(w)
			}
			var op coalOp
			for _, k := range ops {
				op = genOp(r, k%numCoalOps, &op)
				if ref {
					op.applyRef(rw, bufs)
				} else {
					op.apply(w, bufs)
				}
			}
			if ref {
				rw.flushReorder()
			}
		})
		out.Kernels = append(out.Kernels, ks)
		out.ZC = append(out.ZC, d.serialZC)
		out.CXL = append(out.CXL, d.serialCXL)
	}
	out.Total = d.Total()
	out.Clock = d.Clock()
	out.Snapshot = d.Monitor().Snapshot()
	out.Trace = slices.Clone(d.Monitor().Trace())
	out.Dropped = d.Monitor().TraceDropped()
	return out
}

// FuzzCoalescer drives the production coalescer and the reference lane-loop
// implementation with the same random instruction streams — masks, indices,
// 4- and 8-byte elements, reads, writes and atomics, scalar and pair loads,
// MRU invalidations and virtual-warp splits — over every buffer layout,
// with the reorder window off and on, and requires identical kernel
// statistics, zero-copy and CXL per-size counts, and monitor snapshots
// including the request trace's order.
func FuzzCoalescer(f *testing.F) {
	all := make([]byte, numCoalOps)
	for i := range all {
		all[i] = byte(i)
	}
	reads := []byte{opGatherU32, opGatherU64, opScalarU32, opPairU64, opGatherU32, opSplitWorker, opGatherU64, opInvalidateMRU,
		opGatherU32, opGatherU32, opScalarU32, opScalarU32, opPairU64, opPairU64, opGatherU64, opGatherU64}
	for layout := 0; layout < numLayouts; layout++ {
		for _, reorder := range []bool{false, true} {
			f.Add(uint8(layout), reorder, int64(layout+1), uint8(3), all)
			f.Add(uint8(layout), reorder, int64(7*layout+5), uint8(2), reads)
		}
	}
	f.Fuzz(func(t *testing.T, layout uint8, reorder bool, seed int64, warps uint8, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		l := int(layout % numLayouts)
		win := 0
		if reorder {
			win = 8
		}
		nw := int(warps%4) + 1
		got := runCoalescer(l, win, seed, nw, ops, false)
		want := runCoalescer(l, win, seed, nw, ops, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("layout %d window %d: coalescer diverged from the reference\n got  %+v\n want %+v",
				l, win, got, want)
		}
	})
}
