package core

import (
	"math"
	"math/bits"

	"repro/internal/gpu"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// policyRuntime is the engine-side glue for routed transport policies: it
// installs the per-segment route table on the edge-list buffer, computes
// each partition's access-density snapshot from the upcoming frontier at
// every round boundary, asks the policy for new bindings, and applies the
// transitions (staging copies, UVM evictions) before the round's kernel
// launches. Static fast-path runs never construct one, so they cost nothing
// and stay bit-for-bit identical to the pre-policy engine.
//
// Decisions happen only at round boundaries: mid-kernel rebinding would
// make the traffic of a launch depend on warp execution order, breaking the
// determinism contract, and a real implementation could not swap a
// partition's backing store under a running kernel either.
type policyRuntime struct {
	dev *gpu.Device
	dg  *DeviceGraph
	pol TransportPolicy

	// naive and weighted describe the run's kernel so the density snapshot
	// predicts the traffic the coalescer will actually emit: the Naive
	// variant's lane-strided walk issues sector-granule requests (one per
	// element when interleaved weight reads evict the lane's MRU sector),
	// while the merged variants issue line-granule gathers.
	naive    bool
	weighted bool

	// Thrash-model constants (mirroring Device.chargeThrash): per-lane
	// sector reuse only survives in L2 while the concurrent zero-copy
	// stream footprint fits, so a fraction of the reuses the request
	// estimate assumes come back as extra 32B re-fetches.
	thrashSens float64
	l2Bytes    int64
	maxLanes   int

	reuses []int64        // per-partition expected sector reuses (scratch)
	home   []memsys.Space // per-partition home tier (SpaceHostPinned or SpaceCXL)
	route  []memsys.Space // live route table, read by Edges and Weights (SetRoute)
	parts  []PartitionStats
	state  []PartitionState
	next   []Choice // Decide scratch
	costs  CostParams
	moves  []gpu.TransportMove
}

// newPolicyRuntime builds the runtime for one routed run and installs its
// router. Call after per-run buffers are allocated (the staged budget is
// derived from the GPU memory left at that point) and close when the run
// ends.
func newPolicyRuntime(dev *gpu.Device, dg *DeviceGraph, pol TransportPolicy, variant Variant, weighted bool) *policyRuntime {
	rt := &policyRuntime{
		dev:      dev,
		dg:       dg,
		pol:      pol,
		naive:    variant == Naive,
		weighted: weighted,
	}
	n := dg.Edges.Segments()
	if n < 1 {
		n = 1
	}
	rt.parts = make([]PartitionStats, n)
	rt.state = make([]PartitionState, n)
	rt.route = make([]memsys.Space, n)
	rt.next = make([]Choice, n)
	rt.reuses = make([]int64, n)
	rt.home = make([]memsys.Space, n)
	cfg := dev.Config()
	rt.thrashSens = cfg.ThrashSensitivity
	rt.l2Bytes = cfg.L2Bytes
	rt.maxLanes = cfg.MaxConcurrentLanes
	size := dg.Edges.Size()
	base := ChoiceZeroCopy
	if dg.Transport == UVM {
		base = ChoiceUVM
	}
	for i := range rt.parts {
		pb := int64(memsys.SegmentBytes)
		if off := int64(i) * memsys.SegmentBytes; off+pb > size {
			pb = size - off
		}
		rt.parts[i].Bytes = pb
		rt.home[i] = memsys.SpaceHostPinned
		if size > 0 {
			rt.home[i] = dg.Edges.SegmentHome(i)
		}
		rt.parts[i].CXLHome = rt.home[i] == memsys.SpaceCXL
		rt.state[i].Choice = base
		rt.state[i].Since = -1
		rt.route[i] = rt.spaceFor(i, base)
	}
	rt.costs = rt.deriveCosts()
	rt.seedDegreePrior()

	// Replay determinism: every routed run starts cold — no UVM pages
	// inherited from a previous run, and staged copies live only in this
	// run's partition state — so the decision sequence is a pure function
	// of (graph, rounds, frontier), and a fault-injected retry replays it
	// identically.
	dev.ResetUVMResidency()
	dg.Edges.SetRoute(rt.route, memsys.SegmentShift)
	if dg.Weights != nil {
		// Weights ride their edges' binding: edge i's weight is at offset
		// i*4 while the edge is at i*EdgeBytes (4 or 8), so a partition's
		// weight slice is SegmentBytes*4/EdgeBytes long and the weights
		// read the same table at that shift. Segment boundaries fall on
		// cache-line and page multiples of both layouts, so a coalesced
		// weight request never spans two partitions either.
		dg.Weights.SetRoute(rt.route, memsys.SegmentShift+2-uint(bits.TrailingZeros(uint(dg.EdgeBytes))))
	}
	return rt
}

// close removes the router. UVM residency stays for warm reruns;
// ColdCaches (or the next routed run's cold start) evicts it. Staged
// copies end with the run's partition state.

func (rt *policyRuntime) close() {
	rt.dg.Edges.SetRoute(nil, 0)
	if rt.dg.Weights != nil {
		rt.dg.Weights.SetRoute(nil, 0)
	}
}

// spaceFor returns the space that serves partition p under binding c: its
// route table entry. A zero-copy binding reads the partition in place
// through its home tier (host DRAM, or CXL for spilled segments);
// ChoiceHostCached serves a CXL-homed partition from its promoted host-DRAM
// copy.
func (rt *policyRuntime) spaceFor(p int, c Choice) memsys.Space {
	switch c {
	case ChoiceStaged:
		return memsys.SpaceGPU
	case ChoiceUVM:
		return memsys.SpaceUVM
	case ChoiceHostCached:
		return memsys.SpaceHostPinned
	default:
		return rt.home[p]
	}
}

// seedDegreePrior pre-charges each partition's ski-rental balance with a
// degree-distribution prior: on graphs whose average degree is high, the
// frontier densifies almost immediately (a handful of BFS rounds reach most
// vertices), so the recurring zero-copy rent the adaptive rule waits to
// observe is a near-certainty at round 0. Seeding SpentSeconds with ~2
// rounds of full-partition reads at the home link's wire rate (scaled by how
// confidently degree predicts immediate densification) lets the first
// decisions buy UVM or staging directly instead of paying the zero-copy ramp
// HyTGraph-style hysteresis otherwise imposes — the BENCH_8 SK-class
// residual. Static policies ignore partition state, so the prior only shapes
// routed cost-model policies.
func (rt *policyRuntime) seedDegreePrior() {
	g := rt.dg.Graph
	nv := g.NumVertices()
	if nv <= 0 {
		return
	}
	avgDeg := float64(g.NumEdges()) / float64(nv)
	// 1 - exp(-deg/16): ~0 for road-network degrees (2-3), ~0.85+ for
	// social/web graphs (30+), saturating for hub-dominated graphs.
	confidence := 1 - math.Exp(-avgDeg/16)
	if confidence <= 0 {
		return
	}
	for p := range rt.state {
		rent := rt.costs.home(rt.parts[p].CXLHome).readSeconds(rt.parts[p].Bytes, 0)
		rt.state[p].SpentSeconds = 2 * rent * confidence
	}
}

// deriveCosts fills the policy's cost model from the device platform.
func (rt *policyRuntime) deriveCosts() CostParams {
	cfg := rt.dev.Config()
	uvmCfg := rt.dev.UVM().Config()
	pageBytes := int64(uvmCfg.PageBytes)
	chunk := int64(uvmCfg.BlockPages) * pageBytes
	if chunk < pageBytes {
		chunk = pageBytes
	}
	budget := rt.dev.Arena().GPUFree()
	// The UVM page cache holds at most the GPU's free memory; binding more
	// than that makes the driver's LRU evict between rounds, so residency
	// stops being sticky (see CostParams.UVMBudgetBytes).
	uvmBudget := budget
	if budget < 0 {
		uvmBudget = -1 // uncapped device: UVM never thrashes
	}
	if budget > 0 {
		// Leave headroom: UVM-bound partitions and later runs' buffers
		// share the same free memory.
		budget -= budget / 4
	}
	if rt.dg.Weights != nil && budget > 0 {
		// Staging a weighted partition uploads its weight slice too (4 bytes
		// per edge riding the edge binding); shrink the edge-byte budget so
		// the policy's edge-only accounting stays within the real footprint.
		ew := int64(rt.dg.EdgeBytes)
		budget = budget * ew / (ew + 4)
		if uvmBudget > 0 {
			// Weight pages migrate alongside their edges' pages, so the
			// edge-only UVM accounting shares the cache with them too.
			uvmBudget = uvmBudget * ew / (ew + 4)
		}
	}
	cp := CostParams{
		Host:                 rt.linkCosts(cfg.Tiers.DRAM().Link),
		UVMChunkBytes:        chunk,
		StagedBudgetBytes:    budget,
		UVMBudgetBytes:       uvmBudget,
		HostCacheBudgetBytes: -1,
		HoldRounds:           2,
		SwitchMargin:         1.25,
	}
	if cxlT := rt.dev.Arena().CXLTier(); cxlT != nil {
		cp.CXL = rt.linkCosts(cxlT.Link)
		// Host-cache promotions compete with pinned allocations for host
		// DRAM; leave the same headroom fraction the staged budget does.
		hostBudget := rt.dev.Arena().HostFree()
		if hostBudget > 0 {
			hostBudget -= hostBudget / 4
		}
		cp.HostCacheBudgetBytes = hostBudget
	}
	return cp
}

// linkCosts derives the cost model of one link from its configuration and
// the device's paging engine. The effective UVM rate is page transfer at
// bulk rate plus — under the CPU fault handler — the serialized handler cost
// per page; GPU-driven paging pays link tag occupancy instead, mirroring the
// device's accounting (see uvmPageSeconds).
func (rt *policyRuntime) linkCosts(lnk pcie.LinkConfig) LinkCosts {
	uvmCfg := rt.dev.UVM().Config()
	pageBytes := int64(uvmCfg.PageBytes)
	return LinkCosts{
		ReadBytesPerSec: lnk.EffectiveBandwidth(memsys.CacheLineBytes),
		TagSeconds:      lnk.TagSeconds(),
		BulkBytesPerSec: lnk.MemcpyPeak(),
		UVMBytesPerSec:  float64(pageBytes) / uvmPageSeconds(lnk, pageBytes, uvmCfg.FaultCPUSeconds, uvmCfg.GPUDriven),
	}
}

// uvmPageSeconds returns the effective per-page migration time over lnk:
// bulk transfer plus the serialized CPU fault handler, or — GPU-driven —
// the larger of the transfer's wire and tag occupancies (the device charges
// one full-size request's tag per 128 bytes instead of the handler).
func uvmPageSeconds(lnk pcie.LinkConfig, pageBytes int64, faultCPUSeconds float64, gpuDriven bool) float64 {
	s := lnk.BulkSeconds(pageBytes)
	if !gpuDriven {
		return s + faultCPUSeconds
	}
	if tag := float64(pageBytes/128) * lnk.TagSeconds(); tag > s {
		s = tag
	}
	return s
}

// beforeRound runs at one round boundary: snapshot density from the
// frontier (active reports whether vertex v is in the coming round's
// frontier), get the policy's decisions, and apply the transitions. Charged
// device time (staging copies) lands here, before the round's kernel.
func (rt *policyRuntime) beforeRound(round int, active func(v int) bool) {
	start := rt.dev.Clock()
	for i := range rt.parts {
		rt.parts[i].AccessedBytes = 0
		rt.parts[i].Requests = 0
		rt.reuses[i] = 0
	}
	g := rt.dg.Graph
	ew := int64(rt.dg.EdgeBytes)
	n := g.NumVertices()
	var zcLanes int64
	for v := 0; v < n; v++ {
		if !active(v) {
			continue
		}
		lo := g.Offsets[v] * ew
		hi := g.Offsets[v+1] * ew
		if lo == hi {
			continue
		}
		if rt.naive {
			zcLanes++ // one lane walks this vertex's list
		} else {
			zcLanes += int64(gpu.WarpSize) // a whole warp gathers it
		}
		for p := lo / memsys.SegmentBytes; p <= (hi-1)/memsys.SegmentBytes; p++ {
			segLo := p * memsys.SegmentBytes
			segHi := segLo + rt.parts[p].Bytes
			a, b := lo, hi
			if a < segLo {
				a = segLo
			}
			if b > segHi {
				b = segHi
			}
			// Estimate the requests and wire payload this vertex's walk puts
			// on the link if the partition serves it zero-copy, following
			// the coalescer's actual behavior per kernel variant.
			var req, acc int64
			if rt.naive {
				if rt.weighted {
					// Strided walk alternating edge and weight reads: the
					// interleaving evicts the lane's MRU sector between
					// consecutive edge elements, so every element read is its
					// own 32B request (edge plus weight, both routed to this
					// partition — weights ride the edge binding).
					req = (b - a) / ew * 2
					acc = req * memsys.SectorBytes
				} else {
					// Strided walk, one buffer: the lane reuses its current
					// sector until the walk crosses a 32B boundary — but the
					// reuse must survive in L2; the thrash pass below turns a
					// concurrency-dependent fraction into re-fetches.
					sa := a &^ (memsys.SectorBytes - 1)
					sb := (b + memsys.SectorBytes - 1) &^ (memsys.SectorBytes - 1)
					acc = sb - sa
					req = acc / memsys.SectorBytes
					rt.reuses[p] += (b-a)/ew - req
				}
			} else {
				// Merged (warp-per-vertex) gathers: one request per 128B
				// line from the aligned walk start, 32B-sector payload.
				sa := a &^ (memsys.SectorBytes - 1)
				sb := (b + memsys.SectorBytes - 1) &^ (memsys.SectorBytes - 1)
				la := a &^ (memsys.CacheLineBytes - 1)
				req = (b - la + memsys.CacheLineBytes - 1) / memsys.CacheLineBytes
				acc = sb - sa
				if rt.weighted {
					// One weight gather per 32-edge chunk (32 4-byte weights
					// coalesce into a single line request).
					chunkBytes := int64(gpu.WarpSize) * ew
					req += (b - a + chunkBytes - 1) / chunkBytes
					acc += (b - a) / ew * 4
				}
			}
			rt.parts[p].AccessedBytes += acc
			rt.parts[p].Requests += req
		}
	}

	// Thrash pass (the policy-side mirror of the device's §3.3 cache
	// model): estimate the fraction of per-lane sector reuses evicted from
	// L2 by the round's concurrent zero-copy streams and fold them back in
	// as extra 32B requests.
	if rt.thrashSens > 0 && rt.l2Bytes > 0 {
		streams := zcLanes
		if hw := int64(rt.maxLanes); hw > 0 && streams > hw {
			streams = hw
		}
		missFrac := rt.thrashSens * float64(streams) * float64(memsys.SectorBytes) / float64(rt.l2Bytes)
		if missFrac > 1 {
			missFrac = 1
		}
		for p := range rt.parts {
			if rt.reuses[p] == 0 {
				continue
			}
			extra := int64(float64(rt.reuses[p]) * missFrac)
			rt.parts[p].Requests += extra
			rt.parts[p].AccessedBytes += extra * memsys.SectorBytes
		}
	}

	rt.pol.Decide(round, rt.parts, rt.state, rt.costs, rt.next)
	rt.applyDecisions(round)

	// Accrue this round's zero-copy rent on the partitions that will serve
	// it zero-copy — the ski-rental balance the next decision sees. Rent is
	// priced at the link the reads actually cross.
	for p := range rt.parts {
		if rt.state[p].Choice != ChoiceZeroCopy || rt.parts[p].AccessedBytes == 0 {
			continue
		}
		rt.state[p].SpentSeconds += rt.costs.home(rt.parts[p].CXLHome).readSeconds(rt.parts[p].AccessedBytes, rt.parts[p].Requests)
	}
	if len(rt.moves) > 0 {
		rt.dev.EmitTransportDecisions(round, rt.moves, start, rt.dev.Clock())
	}
}

// applyDecisions transitions partitions whose binding changed: stage or
// drop explicit copies, evict pages leaving UVM, update the route table,
// and aggregate the moves for telemetry. Staging is charged as one batched
// copy (the substrate's whole point: segment uploads coalesce into a single
// round-boundary DMA).
func (rt *policyRuntime) applyDecisions(round int) {
	rt.moves = rt.moves[:0]
	ew := int64(rt.dg.EdgeBytes)
	var stageBytes, stageCXLBytes, promoteBytes int64
	for p := range rt.next {
		newC, oldC := rt.next[p], rt.state[p].Choice
		if newC == oldC {
			continue
		}
		off := int64(p) * memsys.SegmentBytes
		// The partition's weight slice rides the same binding (see the
		// route table in newPolicyRuntime): evict and stage it alongside.
		woff, wbytes := off/ew*4, rt.parts[p].Bytes/ew*4
		var evicted uint64
		if oldC == ChoiceUVM {
			evicted = rt.dev.EvictUVM(rt.dg.Edges, off, rt.parts[p].Bytes)
			if rt.dg.Weights != nil {
				evicted += rt.dev.EvictUVM(rt.dg.Weights, woff, wbytes)
			}
		}
		if newC == ChoiceStaged && !rt.state[p].Staged {
			n := rt.parts[p].Bytes
			if rt.dg.Weights != nil {
				n += wbytes
			}
			// The upload crosses the link of the tier the partition is
			// homed on: PCIe for DRAM-homed segments, the CXL link for
			// spilled ones.
			if rt.parts[p].CXLHome {
				stageCXLBytes += n
			} else {
				stageBytes += n
			}
			rt.state[p].Staged = true
		}
		if oldC == ChoiceStaged && newC != ChoiceStaged {
			// Leaving the staged substrate releases the copy (and its
			// budget); re-entry pays the upload again.
			rt.state[p].Staged = false

		}
		if newC == ChoiceHostCached && !rt.state[p].HostCached {
			// Promote the partition (and its weight slice) out of the CXL
			// tier into a host-DRAM copy; subsequent reads go zero-copy at
			// PCIe rates through the router.
			promoteBytes += rt.parts[p].Bytes
			if rt.dg.Weights != nil {
				promoteBytes += wbytes
			}
			rt.state[p].HostCached = true
		}
		if oldC == ChoiceHostCached && newC != ChoiceHostCached {
			// Dropping the host copy is free (read-mostly duplicate of the
			// CXL-resident data); re-entry pays the promotion again.
			rt.state[p].HostCached = false
		}
		rt.state[p].Choice = newC
		rt.state[p].Since = round
		rt.state[p].SpentSeconds = 0
		rt.route[p] = rt.spaceFor(p, newC)
		rt.recordMove(rt.parts[p].DensityClass(), newC, evicted)
	}
	if stageBytes > 0 {
		rt.dev.StageSegments(stageBytes)
	}
	if stageCXLBytes > 0 {
		rt.dev.StageSegmentsCXL(stageCXLBytes)
	}
	if promoteBytes > 0 {
		rt.dev.PromoteFromCXL(promoteBytes)
	}
}

// recordMove aggregates one partition transition into the per-round move
// groups ((density class, choice) pairs; at most 9 distinct).
func (rt *policyRuntime) recordMove(class string, c Choice, evicted uint64) {
	choice := c.String()
	for i := range rt.moves {
		if rt.moves[i].PartitionClass == class && rt.moves[i].Choice == choice {
			rt.moves[i].Count++
			rt.moves[i].Evictions += evicted
			return
		}
	}
	rt.moves = append(rt.moves, gpu.TransportMove{PartitionClass: class, Choice: choice, Count: 1, Evictions: evicted})
}
