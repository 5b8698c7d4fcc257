package core

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
)

// This file is the repository's single traversal engine. Every traversal
// entry point — the paper's three applications, the sub-warp worker
// study, the compressed, edge-centric and direction-optimized extensions,
// and any new application — is a declarative Program descriptor plus an
// engineConfig (kernel choice, buffer names) over the one round loop
// implemented here. The loop, the runState lifecycle, the
// BeginRun/EmitRound/EndRun telemetry hooks, and the Result assembly exist
// exactly once; apps differ only in their descriptors.
//
// The design follows the observation that EMOGI's applications are one
// algorithm wearing different hats: an atomic-min (or atomic-max) relax
// over a frontier, iterated to a fixed point (§4.2, §5.4). A Program names
// the lattice (per-vertex init, relax monoid, convergence by the shared
// flag); the engine owns how rounds execute.
//
// Determinism contract: everything the engine does per round — flag clear,
// optional snapshot copy, kernel launch, flag readback, frontier swap —
// reproduces the exact simulated-operation sequence of the historical
// per-app loops, so Results, counters, and bench tables are bit-for-bit
// identical to the pre-engine implementations (pinned by
// results/golden-engine.json and the serial-vs-parallel and cross-impl
// equivalence suites).

// CombineOp folds an active vertex's pushed value with the traversed
// edge's weight into the relax candidate.
type CombineOp int

const (
	// CombineCarry pushes the source value unchanged (BFS levels, CC
	// labels).
	CombineCarry CombineOp = iota
	// CombineAdd adds the edge weight (SSSP path lengths).
	CombineAdd
	// CombineMin takes the smaller of value and weight (SSWP path widths:
	// a path is as wide as its narrowest edge).
	CombineMin
)

// Monoid is the pluggable relax operator: how candidates are formed from
// source values and edge weights, and which direction "improves" a
// destination's entry.
type Monoid struct {
	// Identity is the value of an unreached vertex (InfDist for min
	// lattices, 0 for max lattices). Active-set kernels skip vertices
	// still holding it.
	Identity uint32
	// Combine forms the relax candidate from (pushed value, edge weight).
	Combine CombineOp
	// Max relaxes with atomic-max instead of atomic-min (candidates
	// raise destination entries; SSWP).
	Max bool
}

// combine folds one pushed value with one edge weight.
func (m Monoid) combine(sv, w uint32) uint32 {
	switch m.Combine {
	case CombineAdd:
		return sv + w
	case CombineMin:
		if w < sv {
			return w
		}
		return sv
	default:
		return sv
	}
}

// visitor builds the engine's edge visitor from the monoid: for each
// traversed edge it computes the candidate value, atomically
// lowers (or raises, for a Max monoid) the destination's entry in target,
// and folds the per-lane success predicate into the convergence flag and,
// when nextActive is non-nil, the next-iteration active bitmap.
//
// Parallel-determinism contract: which lane observes its atomic succeed
// depends on warp execution order, but whether ANY candidate beat a
// destination's starting value this launch does not (the first lane to
// reach the round's extremum always observes success). The mask of
// winning lanes the relax returns therefore feeds only commutative ORs,
// and both stores are issued for the whole edge mask — AtomicOrLanesU32
// charges every lane and writes only the winners' bits — so the traffic
// depends on mask alone, never on race outcomes, and results and stats
// are bit-for-bit identical for any worker count (see DESIGN.md,
// "Parallel execution engine").
func (m Monoid) visitor(target, nextActive, flag *memsys.Buffer) visitFn {
	return func(w *gpu.Warp, mask gpu.Mask, dst *[gpu.WarpSize]uint32, wgt, srcVal *[gpu.WarpSize]uint32) {
		s := scratchOf(w)
		for b := uint32(mask); b != 0; b &= b - 1 {
			l := bits.TrailingZeros32(b)
			s.idx[l] = int64(dst[l])
		}
		// A carried value is the source value itself: relax with it directly.
		val := srcVal
		if m.Combine != CombineCarry {
			for b := uint32(mask); b != 0; b &= b - 1 {
				l := bits.TrailingZeros32(b)
				s.val[l] = m.combine(srcVal[l], wgt[l])
			}
			val = &s.val
		}
		var won gpu.Mask
		if m.Max {
			won = w.RelaxMaxU32(target, &s.idx, val, mask)
		} else {
			won = w.RelaxMinU32(target, &s.idx, val, mask)
		}
		if nextActive != nil {
			w.AtomicOrLanesU32(nextActive, &s.idx, 1, mask, won)
		}
		w.AtomicOrScalarU32(flag, 0, anyLane(won))
	}
}

// anyLane is the convergence flag's contribution: 1 when some lane won.
func anyLane(m gpu.Mask) uint32 {
	if m != 0 {
		return 1
	}
	return 0
}

// FrontierPolicy selects how a Program tracks its frontier.
type FrontierPolicy int

const (
	// FrontierMatch derives the frontier implicitly: a vertex is active
	// when its state equals the current round number (BFS levels). No
	// snapshot is needed because the activity predicate is stable within
	// a launch.
	FrontierMatch FrontierPolicy = iota
	// FrontierActive keeps an explicit active bitmap, double-buffered
	// across rounds, and reads source values from a round-boundary
	// snapshot of the value array so the racy-read/atomic-write kernel
	// stays bit-for-bit reproducible under the parallel launch engine
	// (Jacobi-style bulk-synchronous relaxation; see DESIGN.md).
	FrontierActive
)

// Program declares one traversal algorithm over the frontier engine. A new
// application is a Program plus a registry entry — no engine changes (see
// sswp.go for the worked example, and DESIGN.md §10 for the schema).
type Program struct {
	// App is the Result.App / telemetry label ("BFS", "SSSP", ...).
	App string
	// Frontier selects implicit (match-by-level) or explicit
	// (active-bitmap + snapshot) frontier tracking.
	Frontier FrontierPolicy
	// Relax is the monoid the edge visitor applies.
	Relax Monoid
	// Weighted gathers edge weights for the visitor (requires a weighted
	// graph).
	Weighted bool
	// NoSource marks source-free programs (CC): src is ignored and the
	// Result reports Source -1.
	NoSource bool
	// Init gives every vertex's initial value.
	Init func(v, src int) uint32
	// Seed marks the initial frontier (FrontierActive only).
	Seed func(v, src int) bool
	// Push maps an active vertex's state to the value it offers its
	// neighbors (before Combine folds in the edge weight). Nil means
	// identity; BFS pushes sv+1.
	Push func(sv uint32) uint32
	// Validate checks a finished value array against the CPU reference;
	// Result.Validate dispatches to it by App.
	Validate func(g *graph.CSR, src int, values []uint32) error
}

// push applies the Program's push map (identity when nil).
func (p *Program) push(sv uint32) uint32 {
	if p.Push != nil {
		return p.Push(sv)
	}
	return sv
}

// engineRound is the per-round context handed to kernel launchers: the
// live relax target, the buffer source values must be read from (a
// snapshot under FrontierActive), the current active bitmap, the
// convergence flag, and the monoid visitor for this round.
type engineRound struct {
	dev    *gpu.Device
	level  uint32
	values *memsys.Buffer // live relax target
	state  *memsys.Buffer // source-value reads (snapshot when FrontierActive)
	cur    *memsys.Buffer // active bitmap (nil under FrontierMatch)
	flag   *memsys.Buffer
	visit  visitFn
}

// kernelFunc launches one round's kernel. Standard programs use
// stdMatchKernel/stdActiveKernel; specialty configurations (sub-warp
// workers, compressed or COO edge layouts, direction-optimized pull)
// supply their own.
type kernelFunc func(r *engineRound)

// engineConfig selects how a Program runs on one device: the kernel, the
// reported variant/transport, buffer names (kept stable so arena layout —
// and therefore request alignment — matches the historical
// implementations), and telemetry labels.
type engineConfig struct {
	variant      Variant
	transport    Transport
	graphName    string
	labelVariant string // RunLabels.Variant (defaults to variant.String())
	valueName    string
	snapName     string
	activeNames  [2]string
	roundName    string
	kernel       kernelFunc
	// dg, when set, enables the transport-policy layer for this run: the
	// engine resolves the effective policy (graph's loaded policy or a
	// context override) and, for routed policies, drives per-partition
	// decisions at round boundaries. Nil keeps the historical static path.
	dg *DeviceGraph
	// postRound observes each finished round (host-side only; it must not
	// touch the device). Direction-optimized BFS uses it to recount the
	// frontier that steers its push/pull heuristic.
	postRound func(r *engineRound, more bool)
}

// stdMatchKernel launches the standard match-by-level kernel discipline.
// The matchKernel (and its launch body) is built once on the first round
// and reused, so steady-state rounds only assign its per-round fields —
// part of the zero-alloc round contract (allocs_test.go).
func stdMatchKernel(dg *DeviceGraph, variant Variant, name string, prog *Program) kernelFunc {
	var k *matchKernel
	return func(r *engineRound) {
		if k == nil {
			k = newMatchKernel(r.dev, dg, variant, name)
		}
		k.state, k.match, k.pushVal, k.visit = r.values, r.level, prog.push(r.level), r.visit
		k.launch()
	}
}

// launchKernel returns a kernelFunc that launches body over warps each
// round. The launch closure is built once per run and reads the round in
// flight, so the specialty kernels' steady-state rounds allocate nothing
// either.
func launchKernel(name string, warps int, body func(r *engineRound, w *gpu.Warp)) kernelFunc {
	var cur *engineRound
	launch := func(w *gpu.Warp) { body(cur, w) }
	return func(r *engineRound) {
		cur = r
		r.dev.Launch(name, warps, launch)
	}
}

// stdActiveKernel launches the standard explicit-active-set kernel
// discipline, holding its activeKernel across rounds like stdMatchKernel.
func stdActiveKernel(dg *DeviceGraph, variant Variant, name string, prog *Program) kernelFunc {
	var k *activeKernel
	return func(r *engineRound) {
		if k == nil {
			k = newActiveKernel(r.dev, dg, variant, name, prog.Weighted, prog.Relax.Identity)
		}
		k.state, k.active, k.visit = r.state, r.cur, r.visit
		k.launch()
	}
}

// topology runs one relaxation round at the given round number and
// reports whether any value changed (i.e. the traversal must continue).
// Two topologies exist: singleRun (one source) and batchRun (K sources in
// lane-major groups).
type topology interface {
	round(level uint32) bool
}

// runRounds is the round loop — the only one in the codebase. It drives a
// topology on dev to its fixed point and returns the iteration count.
//
// Cancellation is cooperative and lands only at round boundaries: the
// context is checked before every round (including the first, so an
// already-done context runs nothing), and a launched round always
// completes — the simulated device, like a real one, cannot abandon an
// in-flight kernel. A canceled run therefore leaves the device in the
// same state a completed run would.
func runRounds(ctx context.Context, app string, dev *gpu.Device, t topology) (int, error) {
	iterations := 0
	// Injected read faults also land at round boundaries: the faulted
	// round completes, then the run aborts with a *TransientError instead
	// of trusting data from failed completions. The baseline snapshot
	// scopes the check to this run (the device tally is cumulative, and
	// stays zero when fault injection is disabled).
	faultBase := dev.Total().FaultedReads
	for level := uint32(0); ; level++ {
		if err := ctx.Err(); err != nil {
			return iterations, &CanceledError{App: app, Rounds: iterations, Cause: err}
		}
		more := t.round(level)
		if faulted := dev.Total().FaultedReads - faultBase; faulted > 0 {
			return iterations + 1, &TransientError{App: app, Rounds: iterations + 1, Faults: faulted}
		}
		iterations++
		if !more {
			return iterations, nil
		}
	}
}

// singleRun is the standard one-device topology. Everything a round needs
// is prebuilt at run setup — the engineRound is an embedded value, the
// monoid visitors are constructed once (two under FrontierActive, one per
// identity of the double-buffered next-frontier bitmap), and the
// transport-policy density predicate reads its level from a field — so a
// steady-state round performs no heap allocation (allocs_test.go).
type singleRun struct {
	rs                      *runState
	prog                    *Program
	cfg                     *engineConfig
	prt                     *policyRuntime // non-nil only for routed transport-policy runs
	values, snap, cur, next *memsys.Buffer

	r          engineRound // reused per round
	visitMatch visitFn     // FrontierMatch visitor (no next-frontier bitmap)
	// FrontierActive visitors, keyed by which buffer is `next` this round.
	activeBuf   [2]*memsys.Buffer
	activeVisit [2]visitFn
	// Prebuilt density predicate for routed transport-policy runs; reads
	// predLevel so beforeRound needs no per-round closure.
	pred      func(v int) bool
	predLevel uint32
}

// frontierActive reports whether v is in the frontier of the round about to
// execute — the host-side density predicate the transport-policy runtime
// samples. It mirrors the kernels' own activity tests: match-by-level for
// FrontierMatch, bitmap-and-non-identity for FrontierActive.
func (e *singleRun) frontierActive(v int, level uint32) bool {
	if e.prog.Frontier == FrontierActive {
		return e.cur.U32(int64(v)) != 0 && e.values.U32(int64(v)) != e.prog.Relax.Identity
	}
	return e.values.U32(int64(v)) == level
}

func (e *singleRun) round(level uint32) bool {
	dev := e.rs.dev
	roundStart := dev.Clock()
	if e.prt != nil {
		e.predLevel = level
		e.prt.beforeRound(int(level), e.pred)
	}
	e.rs.clearFlag()
	r := &e.r
	*r = engineRound{
		dev:    dev,
		level:  level,
		values: e.values,
		state:  e.values,
		cur:    e.cur,
		flag:   e.rs.flag,
	}
	if e.prog.Frontier == FrontierActive {
		// Round-boundary snapshot: active vertices read their value from
		// here while atomic updates land in the live array, which keeps
		// reads independent of warp execution order.
		dev.CopyOnDevice(e.snap, e.values)
		r.state = e.snap
		if e.next == e.activeBuf[0] {
			r.visit = e.activeVisit[0]
		} else {
			r.visit = e.activeVisit[1]
		}
	} else {
		r.visit = e.visitMatch
	}
	e.cfg.kernel(r)
	more := e.rs.readFlag()
	dev.EmitRound(e.cfg.roundName, int(level), roundStart)
	if e.cfg.postRound != nil {
		e.cfg.postRound(r, more)
	}
	if more && e.prog.Frontier == FrontierActive {
		e.cur, e.next = e.next, e.cur
		dev.Memset(e.next, 0) // clear the new next-frontier (cudaMemsetAsync)
	}
	return more
}

// runProgram executes a Program on one device: buffer setup, state init
// and upload, the round loop, and Result assembly, with every run
// reported to the device's telemetry sink under the config's labels.
// Cancellation through ctx stops the run at the next round boundary with
// a *CanceledError; the per-run buffers are freed either way.
func runProgram(ctx context.Context, dev *gpu.Device, n int, prog *Program, src int, cfg *engineConfig) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if !prog.NoSource && (src < 0 || src >= n) {
		return nil, fmt.Errorf("core: %s source %d out of range [0,%d)", prog.App, src, n)
	}
	labelVariant := cfg.labelVariant
	if labelVariant == "" {
		labelVariant = cfg.variant.String()
	}
	// Resolve the transport policy for this run. Static policies matching
	// the graph's base transport take the historical fast path (no router,
	// no density accounting — bit-for-bit the pre-policy engine); anything
	// else routes per partition per round.
	rp := effectivePolicy(ctx, cfg.dg, cfg.transport)
	dev.BeginRun(gpu.RunLabels{App: prog.App, Variant: labelVariant,
		Transport: rp.label, Graph: cfg.graphName})
	defer dev.EndRun()
	rs, err := newRunState(dev)
	if err != nil {
		return nil, err
	}
	values, err := rs.alloc(cfg.valueName, int64(n)*4)
	if err != nil {
		rs.abort()
		return nil, err
	}
	e := &singleRun{rs: rs, prog: prog, cfg: cfg, values: values}
	if prog.Frontier == FrontierActive {
		if e.snap, err = rs.alloc(cfg.snapName, int64(n)*4); err != nil {
			rs.abort()
			return nil, err
		}
		if e.cur, err = rs.alloc(cfg.activeNames[0], int64(n)*4); err != nil {
			rs.abort()
			return nil, err
		}
		if e.next, err = rs.alloc(cfg.activeNames[1], int64(n)*4); err != nil {
			rs.abort()
			return nil, err
		}
		// The two frontier bitmaps alternate as `next` across rounds;
		// prebuild one visitor per identity so rounds just select one.
		e.activeBuf[0], e.activeBuf[1] = e.cur, e.next
		e.activeVisit[0] = prog.Relax.visitor(values, e.cur, rs.flag)
		e.activeVisit[1] = prog.Relax.visitor(values, e.next, rs.flag)
	} else {
		e.visitMatch = prog.Relax.visitor(values, nil, rs.flag)
	}
	e.pred = func(v int) bool { return e.frontierActive(v, e.predLevel) }
	// Initialize per-vertex state (and the seed frontier) host-side, then
	// model the initial upload.
	for v := 0; v < n; v++ {
		values.PutU32(int64(v), prog.Init(v, src))
	}
	uploadWords := int64(1)
	if prog.Frontier == FrontierActive {
		for v := 0; v < n; v++ {
			if prog.Seed(v, src) {
				e.cur.PutU32(int64(v), 1)
			}
		}
		uploadWords = 2 // values + initial frontier upload
	}
	dev.CopyToDevice(int64(n) * 4 * uploadWords)

	if rp.routed {
		// Built after the per-run buffers exist so the staged budget sees
		// the GPU memory actually left for this run.
		e.prt = newPolicyRuntime(dev, cfg.dg, rp.pol, cfg.variant, prog.Weighted)
		defer e.prt.close()
	}

	iterations, err := runRounds(ctx, prog.App, dev, e)
	if err != nil {
		rs.abort()
		return nil, err
	}
	res := rs.finish(prog.App, cfg.variant, cfg.transport, src, values, n, iterations)
	if prog.NoSource {
		res.Source = -1 // source-free programs (CC) have no source vertex
	}
	res.Policy = rp.name
	return res, nil
}

// runState carries the engine's shared plumbing: the convergence flag and
// the per-run GPU buffers to free.
type runState struct {
	dev      *gpu.Device
	flag     *memsys.Buffer
	freeList []*memsys.Buffer
}

func newRunState(dev *gpu.Device) (*runState, error) {
	flag, err := dev.Arena().Alloc("flag", memsys.SpaceGPU, 4)
	if err != nil {
		return nil, fmt.Errorf("core: allocating convergence flag: %w", err)
	}
	rs := &runState{dev: dev, flag: flag}
	rs.freeList = append(rs.freeList, flag)
	return rs, nil
}

// alloc creates a per-run GPU buffer that finish will release.
func (rs *runState) alloc(name string, size int64) (*memsys.Buffer, error) {
	b, err := rs.dev.Arena().Alloc(name, memsys.SpaceGPU, size)
	if err != nil {
		return nil, fmt.Errorf("core: allocating %s: %w", name, err)
	}
	rs.freeList = append(rs.freeList, b)
	return b, nil
}

// abort releases the per-run buffers without assembling a Result — the
// cancellation and alloc-failure path. The arena is left exactly as a
// completed run leaves it, so the same graph is immediately traversable
// again.
func (rs *runState) abort() {
	for _, b := range rs.freeList {
		rs.dev.Arena().Free(b)
	}
}

// clearFlag resets the convergence flag before a kernel (a 4-byte
// host-to-device write).
func (rs *runState) clearFlag() {
	rs.flag.PutU32(0, 0)
	rs.dev.CopyToDevice(4)
}

// readFlag reads the convergence flag back after a kernel (a 4-byte
// device-to-host read).
func (rs *runState) readFlag() bool {
	rs.dev.CopyToHost(4)
	return rs.flag.U32(0) != 0
}

// finish downloads the n-element 4-byte result array from values, frees
// per-run buffers, and assembles the Result.
func (rs *runState) finish(app string, variant Variant, transport Transport, src int, values *memsys.Buffer, n int, iterations int) *Result {
	rs.dev.CopyToHost(int64(n) * 4)
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = values.U32(int64(i))
	}
	for _, b := range rs.freeList {
		rs.dev.Arena().Free(b)
	}
	stats := rs.dev.RunStats()
	return &Result{
		App:        app,
		Variant:    variant,
		Transport:  transport,
		Source:     src,
		Values:     out,
		Iterations: iterations,
		Elapsed:    stats.Elapsed,
		Stats:      stats,
	}
}
