package core

import (
	"context"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/gpu"
	"repro/internal/memsys"
)

// This file is the engine's batched execution mode: one fixed-point loop
// advancing up to K sources of the same (graph, algorithm, variant,
// transport) together, MS-BFS style. Per-vertex state is a K-lane group
// ("lane-major": element v*K+q is query q's value at vertex v), the
// explicit frontier is a per-vertex bitmask of uint64 words with one bit
// per query, and a single edge scan relaxes every active lane at once —
// a vertex on the frontier of several queries has its neighbor list
// streamed over PCIe once instead of once per query, which is the entire
// point: EMOGI makes one traversal transfer-efficient, batching amortizes
// the transfer across queries (see DESIGN.md §13).
//
// Per-lane convergence is tracked with a K-element flag array: a lane
// whose flag stays clear for a round has reached its fixed point and
// retires (its bit leaves the host-side live mask, so no kernel ever
// scans it again and its values stay frozen). A lane whose per-request
// context is done detaches the same way at the next round boundary —
// the batch keeps running for the other lanes. The whole-batch context
// and injected transient faults abort the entire run through runRounds,
// exactly like a single-source run.
//
// Determinism and equivalence contract: lanes are independent — lane q's
// atomics touch only elements v*K+q and bit q of the frontier words, and
// all cross-lane aggregation (the frontier-word OR, the per-lane flag OR)
// is commutative — so each lane's value array and retirement round are
// bit-for-bit identical to the same source run alone, for any worker
// count and any batch composition (pinned by TestBatchEquivalence and
// FuzzBatchLanes). Stats and Elapsed describe the shared batched run and
// are attached to every lane's Result, with Result.BatchSize recording
// the batch width.

// BatchSpec names one lane of a batched run.
type BatchSpec struct {
	// Src is the lane's source vertex.
	Src int
	// Ctx, when non-nil, detaches this lane at the next round boundary
	// once done: the lane's BatchItem reports a *CanceledError while the
	// batch keeps running for the other lanes. Nil lanes only stop with
	// the whole batch.
	Ctx context.Context
}

// BatchItem is one lane's outcome: exactly one of Res and Err is set.
type BatchItem struct {
	Res *Result
	Err error
}

// BatchOutcome reports one batched dispatch.
type BatchOutcome struct {
	// Results holds one item per BatchSpec, in input order.
	Results []BatchItem
	// BatchedRun reports whether the lanes shared one engine run (false
	// when the algorithm has no batched mode and the lanes ran through
	// the sequential fallback).
	BatchedRun bool
	// EdgeScans counts the edges the shared sweep streamed (each scan of
	// a vertex's neighbor list counts its degree once, however many lanes
	// it served).
	EdgeScans uint64
	// EdgeScansSaved counts the edge reads the sharing avoided: the
	// degree-weighted excess of per-lane active vertices over scanned
	// vertices, i.e. what K independent runs would have re-streamed.
	EdgeScansSaved uint64
}

// batchLane is one query's host-side state.
type batchLane struct {
	spec   BatchSpec
	rounds int   // kernel launches this lane participated in
	err    error // set when the lane detached (cancellation, bad source)
}

// batchRun is the batched one-device topology behind runRounds.
type batchRun struct {
	dev  *gpu.Device
	dg   *DeviceGraph
	prog *Program

	n, k, lwords int
	aligned      bool
	roundName    string

	values *memsys.Buffer // lane-major value groups, n*K elements
	snap   *memsys.Buffer // round-boundary snapshot (FrontierActive)
	cur    *memsys.Buffer // frontier bitmask words, n*lwords (FrontierActive)
	next   *memsys.Buffer
	flags  *memsys.Buffer // per-lane convergence flags, K elements

	lanes []*batchLane
	live  []uint64       // host-side live-lane mask words
	prt   *policyRuntime // non-nil only for routed transport-policy runs

	scans, saved uint64

	// Prebuilt per-run machinery for the zero-alloc round contract
	// (allocs_test.go): the launch bodies and the shared visitor are
	// constructed once at run setup and read the mutable fields below;
	// liveList and liveSnap are reused round to round.
	matchBody, activeBody func(w *gpu.Warp)
	batchVisit            visitFn
	liveList              []int
	liveSnap              []uint64 // copy of live the active body reads, stable per launch
	matchLevel            uint32
	pushVal               uint32
	pred                  func(v int) bool
	predLevel             uint32
}

func (br *batchRun) isLive(q int) bool { return br.live[q>>6]&(1<<(uint(q)&63)) != 0 }
func (br *batchRun) clearLive(q int)   { br.live[q>>6] &^= 1 << (uint(q) & 63) }
func (br *batchRun) setLive(q int)     { br.live[q>>6] |= 1 << (uint(q) & 63) }

// liveLanes rebuilds br.liveList (ascending live lane numbers) and returns
// it. The backing array is reused across rounds: the launch bodies read it
// through br, and a launch always completes before the next rebuild.
func (br *batchRun) liveLanes() []int {
	out := br.liveList[:0]
	for q := 0; q < br.k; q++ {
		if br.isLive(q) {
			out = append(out, q)
		}
	}
	br.liveList = out
	return out
}

func (br *batchRun) round(level uint32) bool {
	dev := br.dev
	roundStart := dev.Clock()

	// Detach lanes whose request context is done — at the round boundary,
	// like whole-run cancellation, and purely host-side: the lane leaves
	// the live mask, so no device write is needed and the shared buffers
	// stay untouched until the batch completes.
	for q, ln := range br.lanes {
		if !br.isLive(q) || ln.spec.Ctx == nil {
			continue
		}
		if cause := ln.spec.Ctx.Err(); cause != nil {
			ln.err = &CanceledError{App: br.prog.App, Rounds: ln.rounds, Cause: cause}
			br.clearLive(q)
		}
	}
	liveList := br.liveLanes()
	if len(liveList) == 0 {
		return false
	}
	br.accountScans(liveList, level)
	if br.prt != nil {
		br.predLevel = level
		br.prt.beforeRound(int(level), br.pred)
	}

	// Clear the live lanes' convergence flags (a host-to-device write,
	// the batched analog of runState.clearFlag).
	for _, q := range liveList {
		br.flags.PutU32(int64(q), 0)
	}
	dev.CopyToDevice(int64(len(liveList)) * 4)

	if br.prog.Frontier == FrontierActive {
		// Round-boundary snapshot of the whole lane-major value array:
		// active lanes read source values from here while atomics land in
		// the live array, same discipline as the single-source engine.
		dev.CopyOnDevice(br.snap, br.values)
		br.launchActive()
	} else {
		br.launchMatch(level)
	}

	// Read the flags back; a live lane with a clear flag reached its
	// fixed point this round and retires.
	dev.CopyToHost(int64(len(liveList)) * 4)
	more := false
	for _, q := range liveList {
		br.lanes[q].rounds++
		if br.flags.U32(int64(q)) == 0 {
			br.clearLive(q)
		} else {
			more = true
		}
	}
	dev.EmitRound(br.roundName, int(level), roundStart)
	if more && br.prog.Frontier == FrontierActive {
		br.cur, br.next = br.next, br.cur
		dev.Memset(br.next, 0)
	}
	return more
}

// anyActive reports whether any live lane puts vertex v in the coming
// round's frontier — the batched density predicate the transport-policy
// runtime samples (the union of the per-lane singleRun.frontierActive
// tests, which is exactly what the shared sweep will scan).
func (br *batchRun) anyActive(liveList []int, v int, level uint32) bool {
	k := int64(br.k)
	ident := br.prog.Relax.Identity
	if br.prog.Frontier == FrontierActive {
		lw := int64(br.lwords)
		for wd := int64(0); wd < lw; wd++ {
			bm := br.cur.U64(int64(v)*lw+wd) & br.live[wd]
			for bm != 0 {
				q := int(wd)<<6 + bits.TrailingZeros64(bm)
				bm &= bm - 1
				if br.values.U32(int64(v)*k+int64(q)) != ident {
					return true
				}
			}
		}
		return false
	}
	for _, q := range liveList {
		if br.values.U32(int64(v)*k+int64(q)) == level {
			return true
		}
	}
	return false
}

// accountScans tallies the round's edge-scan sharing, host-side (this is
// simulator accounting, not modeled device work: it reads the buffers the
// simulator already holds in host memory and touches no device counter).
// A vertex active in a lanes has its neighbor list streamed once instead
// of a times, so the sweep saves (a-1)*degree edge reads.
func (br *batchRun) accountScans(liveList []int, level uint32) {
	k := int64(br.k)
	lw := int64(br.lwords)
	ident := br.prog.Relax.Identity
	for v := 0; v < br.n; v++ {
		a := uint64(0)
		if br.prog.Frontier == FrontierActive {
			for wd := int64(0); wd < lw; wd++ {
				bm := br.cur.U64(int64(v)*lw+wd) & br.live[wd]
				for bm != 0 {
					q := int(wd)<<6 + bits.TrailingZeros64(bm)
					bm &= bm - 1
					if br.values.U32(int64(v)*k+int64(q)) != ident {
						a++
					}
				}
			}
		} else {
			for _, q := range liveList {
				if br.values.U32(int64(v)*k+int64(q)) == level {
					a++
				}
			}
		}
		if a == 0 {
			continue
		}
		deg := uint64(br.dg.Graph.Degree(v))
		br.scans += deg
		br.saved += (a - 1) * deg
	}
}

// gatherGroup gathers buf[base+lanes[i]] for every listed lane in
// warp-size chunks — the batched analog of the per-source kernels'
// single value read. Lane-major groups are contiguous, so the reads
// coalesce into a handful of requests however wide the batch is.
func gatherGroup(w *gpu.Warp, buf *memsys.Buffer, base int64, lanes []int, out []uint32) {
	for c := 0; c < len(lanes); c += gpu.WarpSize {
		var idx [gpu.WarpSize]int64
		mask := gpu.MaskNone
		for l := 0; l < gpu.WarpSize && c+l < len(lanes); l++ {
			idx[l] = base + int64(lanes[c+l])
			mask = mask.Set(l)
		}
		vals := w.GatherU32(buf, &idx, mask)
		for l := 0; l < gpu.WarpSize && c+l < len(lanes); l++ {
			out[c+l] = vals[l]
		}
	}
}

// buildVisit builds the batched edge visitor, shared by every warp of
// every round: for each traversed edge chunk and each active query lane q
// (read from the worker's scratch, where the launch body staged the
// vertex's active-lane list and push values), it relaxes the
// destinations' lane-q entries and folds the per-lane success predicate
// into lane q's convergence flag and (under FrontierActive) the
// destinations' lane-q frontier bits. Both stores are issued for the full
// edge mask, with data written only on the lanes the relax improved — the
// same traffic-depends-on-mask-alone discipline as Monoid.visitor, so
// results and counters are independent of worker count.
func (br *batchRun) buildVisit() visitFn {
	m := br.prog.Relax
	k := int64(br.k)
	lw := int64(br.lwords)
	return func(w *gpu.Warp, mask gpu.Mask, dst *[gpu.WarpSize]uint32, wgt, _ *[gpu.WarpSize]uint32) {
		s := scratchOf(w)
		act, push := s.act, s.push
		for i, q := range act {
			for b := uint32(mask); b != 0; b &= b - 1 {
				l := bits.TrailingZeros32(b)
				s.idx[l] = int64(dst[l])*k + int64(q)
				s.val[l] = m.combine(push[i], wgt[l])
			}
			var won gpu.Mask
			if m.Max {
				won = w.RelaxMaxU32(br.values, &s.idx, &s.val, mask)
			} else {
				won = w.RelaxMinU32(br.values, &s.idx, &s.val, mask)
			}
			if br.next != nil {
				for b := uint32(mask); b != 0; b &= b - 1 {
					l := bits.TrailingZeros32(b)
					s.widx[l] = int64(dst[l])*lw + int64(q>>6)
				}
				w.AtomicOrLanesU64(br.next, &s.widx, 1<<(uint(q)&63), mask, won)
			}
			w.AtomicOrScalarU32(br.flags, int64(q), anyLane(won))
		}
	}
}

// buildBodies constructs the two launch bodies once per run. Both stage
// each vertex's active-lane list and push values in the worker's scratch
// (sized to the batch width by batchScratch) before walking the neighbor
// list with the shared visitor — no per-warp makes, no per-round
// closures. Per-round inputs (liveList, matchLevel/pushVal, the cur/next
// swap, the liveSnap copy) are fields the bodies read through br.
func (br *batchRun) buildBodies() {
	dg := br.dg
	k := int64(br.k)
	lw := int64(br.lwords)
	prog := br.prog
	ident := prog.Relax.Identity
	needW := prog.Weighted
	aligned := br.aligned
	br.batchVisit = br.buildVisit()

	// Batched match-by-level (BFS): a warp per vertex gathers the vertex's
	// live-lane value group, keeps the lanes sitting exactly at the current
	// level, and walks the neighbor list once for all of them. Batched
	// scanning is inherently warp-per-vertex, so the requested variant
	// selects only the 128B alignment shift; see DESIGN.md §13.
	br.matchBody = func(w *gpu.Warp) {
		v := int64(w.ID())
		s := br.batchScratch(w)
		liveList := br.liveList
		group := s.groupBuf[:len(liveList)]
		gatherGroup(w, br.values, v*k, liveList, group)
		act := s.actBuf[:0]
		for i, q := range liveList {
			if group[i] == br.matchLevel {
				act = append(act, q)
			}
		}
		if len(act) == 0 {
			return
		}
		push := s.pushBuf[:len(act)]
		for i := range push {
			push[i] = br.pushVal
		}
		s.act, s.push = act, push
		walkMerged(w, dg, v, 0, aligned, false, br.batchVisit)
	}

	// Batched explicit-frontier (SSSP, SSWP): a warp per vertex reads the
	// vertex's frontier words, masks them to the live lanes, gathers the
	// surviving lanes' snapshot values, drops lanes still at the identity,
	// and walks the neighbor list once for the rest.
	br.activeBody = func(w *gpu.Warp) {
		v := int64(w.ID())
		s := br.batchScratch(w)
		act := s.actBuf[:0]
		for wd := int64(0); wd < lw; wd++ {
			bm := w.ScalarU64(br.cur, v*lw+wd) & br.liveSnap[wd]
			for bm != 0 {
				act = append(act, int(wd)<<6+bits.TrailingZeros64(bm))
				bm &= bm - 1
			}
		}
		if len(act) == 0 {
			return
		}
		group := s.groupBuf[:len(act)]
		gatherGroup(w, br.snap, v*k, act, group)
		work := act[:0]
		push := group[:0]
		for i, q := range act {
			if group[i] != ident {
				work = append(work, q)
				push = append(push, prog.push(group[i]))
			}
		}
		if len(work) == 0 {
			return
		}
		s.act, s.push = work, push
		walkMerged(w, dg, v, 0, aligned, needW, br.batchVisit)
	}
}

// launchMatch runs one batched match-by-level round (the body reads the
// live-lane list through br.liveList).
func (br *batchRun) launchMatch(level uint32) {
	br.matchLevel = level
	br.pushVal = br.prog.push(level)
	br.dev.Launch(br.roundName, br.n, br.matchBody)
}

// launchActive runs one batched explicit-frontier round. liveSnap keeps
// the launch's view of the live mask stable while lanes retire between
// rounds.
func (br *batchRun) launchActive() {
	br.liveSnap = append(br.liveSnap[:0], br.live...)
	br.dev.Launch(br.roundName, br.n, br.activeBody)
}

// runBatchProgram executes a Program for K sources in one batched engine
// run. Out-of-range sources fail their lane (the same error a
// single-source run returns) without aborting the batch; whole-batch
// cancellation and injected transient faults abort everything through
// runRounds, leaving the arena exactly as a completed run would.
func runBatchProgram(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, prog *Program, specs []BatchSpec, variant Variant) (*BatchOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := dg.NumVertices()
	k := len(specs)
	if k == 0 {
		return nil, fmt.Errorf("core: %s batch requires at least one source", prog.App)
	}
	lwords := (k + 63) / 64

	// Same policy resolution as runProgram: static policies matching the
	// graph's base transport take the historical fast path, anything else
	// routes per partition per round.
	rp := effectivePolicy(ctx, dg, dg.Transport)
	dev.BeginRun(gpu.RunLabels{App: prog.App,
		Variant:   fmt.Sprintf("batch%d/%s", k, variant),
		Transport: rp.label, Graph: dg.Graph.Name})
	defer dev.EndRun()

	br := &batchRun{
		dev: dev, dg: dg, prog: prog,
		n: n, k: k, lwords: lwords,
		aligned:   variant == MergedAligned,
		roundName: strings.ToLower(prog.App) + "/batch",
		lanes:     make([]*batchLane, k),
		live:      make([]uint64, lwords),
	}
	var freeList []*memsys.Buffer
	alloc := func(name string, size int64) (*memsys.Buffer, error) {
		b, err := dev.Arena().Alloc(name, memsys.SpaceGPU, size)
		if err != nil {
			return nil, fmt.Errorf("core: allocating %s: %w", name, err)
		}
		freeList = append(freeList, b)
		return b, nil
	}
	freeAll := func() {
		for _, b := range freeList {
			dev.Arena().Free(b)
		}
	}
	var err error
	if br.values, err = alloc("batch.values", int64(n)*int64(k)*4); err != nil {
		return nil, err
	}
	if br.flags, err = alloc("batch.flags", int64(k)*4); err != nil {
		freeAll()
		return nil, err
	}
	if prog.Frontier == FrontierActive {
		if br.snap, err = alloc("batch.snap", int64(n)*int64(k)*4); err != nil {
			freeAll()
			return nil, err
		}
		if br.cur, err = alloc("batch.active0", int64(n)*int64(lwords)*8); err != nil {
			freeAll()
			return nil, err
		}
		if br.next, err = alloc("batch.active1", int64(n)*int64(lwords)*8); err != nil {
			freeAll()
			return nil, err
		}
	}

	// Prebuild the round machinery (launch bodies, shared visitor, density
	// predicate) and size the reused round scratch once, so steady-state
	// rounds allocate nothing.
	br.liveList = make([]int, 0, k)
	br.liveSnap = make([]uint64, 0, lwords)
	br.buildBodies()
	br.pred = func(v int) bool { return br.anyActive(br.liveList, v, br.predLevel) }

	// Per-lane admission: an out-of-range source fails its lane exactly
	// as runProgram fails a single request; the lane never goes live.
	for q, sp := range specs {
		br.lanes[q] = &batchLane{spec: sp}
		if sp.Src < 0 || sp.Src >= n {
			br.lanes[q].err = fmt.Errorf("core: %s source %d out of range [0,%d)", prog.App, sp.Src, n)
			continue
		}
		br.setLive(q)
	}

	// Host-side init of the lane-major state (and seed frontier), then
	// the modeled upload.
	for v := 0; v < n; v++ {
		base := int64(v) * int64(k)
		for q, sp := range specs {
			br.values.PutU32(base+int64(q), prog.Init(v, sp.Src))
			if prog.Frontier == FrontierActive && br.isLive(q) && prog.Seed(v, sp.Src) {
				wi := int64(v)*int64(lwords) + int64(q>>6)
				br.cur.PutU64(wi, br.cur.U64(wi)|1<<(uint(q)&63))
			}
		}
	}
	uploadBytes := int64(n) * int64(k) * 4
	if prog.Frontier == FrontierActive {
		uploadBytes += int64(n) * int64(lwords) * 8
	}
	dev.CopyToDevice(uploadBytes)

	if rp.routed {
		// Built after the per-run buffers exist so the staged budget sees
		// the GPU memory actually left for this run.
		// The batched kernel always walks merged (the variant selects only
		// the alignment shift), so the density model uses merged coalescing.
		br.prt = newPolicyRuntime(dev, dg, rp.pol, Merged, prog.Weighted)
		defer br.prt.close()
	}

	if _, err := runRounds(ctx, prog.App, dev, br); err != nil {
		freeAll()
		return nil, err
	}

	// Download the lane-major array once and slice it per lane.
	dev.CopyToHost(int64(n) * int64(k) * 4)
	stats := dev.RunStats()
	out := &BatchOutcome{
		Results:        make([]BatchItem, k),
		BatchedRun:     true,
		EdgeScans:      br.scans,
		EdgeScansSaved: br.saved,
	}
	for q, ln := range br.lanes {
		if ln.err != nil {
			out.Results[q] = BatchItem{Err: ln.err}
			continue
		}
		vals := make([]uint32, n)
		base := int64(q)
		for v := 0; v < n; v++ {
			vals[v] = br.values.U32(int64(v)*int64(k) + base)
		}
		out.Results[q] = BatchItem{Res: &Result{
			App:        prog.App,
			Variant:    variant,
			Transport:  dg.Transport,
			Source:     specs[q].Src,
			Values:     vals,
			Iterations: ln.rounds,
			Elapsed:    stats.Elapsed,
			Stats:      stats,
			BatchSize:  k,
			Policy:     rp.name,
		}}
	}
	freeAll()
	return out, nil
}

// BFSBatch advances K BFS sources in one batched engine run.
func BFSBatch(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, specs []BatchSpec, variant Variant) (*BatchOutcome, error) {
	return runBatchProgram(ctx, dev, dg, bfsProgram(), specs, variant)
}

// SSSPBatch advances K SSSP sources in one batched engine run.
func SSSPBatch(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, specs []BatchSpec, variant Variant) (*BatchOutcome, error) {
	if dg.Weights == nil {
		return nil, fmt.Errorf("core: SSSP requires a weighted graph")
	}
	return runBatchProgram(ctx, dev, dg, ssspProgram(), specs, variant)
}

// SSWPBatch advances K SSWP sources in one batched engine run.
func SSWPBatch(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, specs []BatchSpec, variant Variant) (*BatchOutcome, error) {
	if dg.Weights == nil {
		return nil, fmt.Errorf("core: SSWP requires a weighted graph")
	}
	return runBatchProgram(ctx, dev, dg, sswpProgram(), specs, variant)
}

// RunBatchAlgo dispatches a batched traversal by registry name.
// Algorithms without a batched mode run each lane sequentially (one
// engine run per lane, honoring per-lane contexts) and report
// BatchedRun=false — callers get identical per-lane semantics either
// way, only the sharing differs.
func RunBatchAlgo(ctx context.Context, dev *gpu.Device, dg *DeviceGraph, name string, specs []BatchSpec, variant Variant) (*BatchOutcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	a := LookupAlgorithm(name)
	if a == nil {
		return nil, &UnknownAlgorithmError{Name: name}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: %s batch requires at least one source", a.Name)
	}
	if a.Batch != nil {
		return a.Batch(ctx, dev, dg, specs, variant)
	}
	out := &BatchOutcome{Results: make([]BatchItem, len(specs))}
	for i, sp := range specs {
		if cause := ctx.Err(); cause != nil {
			out.Results[i] = BatchItem{Err: &CanceledError{App: a.Name, Cause: cause}}
			continue
		}
		runCtx := sp.Ctx
		if runCtx == nil {
			runCtx = ctx
		}
		res, err := a.Run(runCtx, dev, dg, sp.Src, variant)
		out.Results[i] = BatchItem{Res: res, Err: err}
	}
	return out, nil
}
