package core

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// This file defines the pluggable transport-policy layer. EMOGI's original
// design makes the host-to-GPU transport one global, load-time choice (the
// Transport enum: zero-copy vs. UVM). HyTGraph (PAPERS.md) shows the right
// choice is per-partition and per-iteration: dense partitions are cheaper to
// copy wholesale, sparse ones are cheaper to read on demand, and the winner
// changes as the frontier moves. A TransportPolicy makes that decision —
// the engine partitions the edge list into fixed memsys.SegmentBytes
// segments, measures each partition's expected access density at every round
// boundary, and asks the policy which substrate each partition should be
// served from for the coming round. See DESIGN.md §15.

// Choice is the substrate a policy binds one partition to for one round.
type Choice uint8

const (
	// ChoiceZeroCopy serves the partition with per-request pinned-host
	// reads (EMOGI's optimized transport).
	ChoiceZeroCopy Choice = iota
	// ChoiceUVM serves the partition through demand page migration.
	ChoiceUVM
	// ChoiceStaged serves the partition from an explicit batched copy in
	// GPU memory, uploaded at the round boundary that chose it.
	ChoiceStaged
	// ChoiceHostCached serves a CXL-homed partition from a host-DRAM copy:
	// a one-time bulk read over the CXL link promotes the segment into
	// DRAM, after which it is read zero-copy at PCIe rates. Only
	// meaningful on three-tier systems; policies never choose it for
	// DRAM-homed partitions.
	ChoiceHostCached

	numChoices
)

// String returns the substrate label used in metrics and traces.
func (c Choice) String() string {
	switch c {
	case ChoiceZeroCopy:
		return "zerocopy"
	case ChoiceUVM:
		return "uvm"
	case ChoiceStaged:
		return "staged"
	case ChoiceHostCached:
		return "dram"
	default:
		return fmt.Sprintf("choice(%d)", uint8(c))
	}
}

// PartitionStats is one partition's access-density snapshot for the round
// about to execute, computed host-side from the frontier (the same
// information a real implementation gets from its frontier inspection pass).
type PartitionStats struct {
	// Bytes is the partition length (SegmentBytes except the tail).
	Bytes int64
	// AccessedBytes is the expected edge-list bytes the coming round reads
	// from this partition: the summed overlap of every frontier vertex's
	// neighbor-list byte range with the partition, rounded to the 32B
	// sector transaction granule — the payload a zero-copy round would
	// actually put on the wire, amplification included.
	AccessedBytes int64
	// Requests is the expected number of coalesced zero-copy PCIe requests
	// the coming round issues against this partition (one per 128B cache
	// line touched per frontier vertex). Zero-copy streams of small
	// requests are tag-limited, not wire-limited (paper §3.3), so request
	// count — not bytes — is what dominates skewed-graph cost.
	Requests int64
	// CXLHome reports that the partition's backing bytes live on the
	// external CXL-class tier (a three-tier placement spilled it there).
	// Its in-place read and migration costs are then priced at
	// CostParams.CXL, and ChoiceHostCached becomes available.
	CXLHome bool
}

// DensityClass buckets a partition's predicted density for metrics:
// "cold" (no expected accesses), "hot" (expected bytes cover the whole
// partition), "warm" (in between).
func (p PartitionStats) DensityClass() string {
	switch {
	case p.AccessedBytes == 0:
		return "cold"
	case p.AccessedBytes >= p.Bytes:
		return "hot"
	default:
		return "warm"
	}
}

// PartitionState is the engine-maintained binding state the policy sees.
type PartitionState struct {
	// Choice is the substrate currently serving the partition.
	Choice Choice
	// Since is the round the current choice was adopted, or -1 while the
	// partition still sits on its load-time binding: a first move owes no
	// dwell (there is no prior decision to protect from thrashing), which
	// matters because the densest rounds of a traversal are the early ones.
	Since int
	// Staged reports whether the partition's explicit device copy is
	// resident (staying resident across rounds makes re-choosing staged
	// free for the rest of the run).

	Staged bool
	// HostCached reports whether a CXL-homed partition's host-DRAM copy is
	// resident (re-choosing ChoiceHostCached is then free; leaving the
	// substrate drops the copy and re-entry pays the promotion again).
	HostCached bool
	// SpentSeconds is the estimated link time already paid reading this
	// partition zero-copy since its current binding was adopted — the
	// "rent paid so far" of the ski-rental rule. The engine accumulates it
	// each round a zero-copy-bound partition is accessed and resets it on
	// every binding change, so a policy can justify a one-time migration
	// (staging copy, page migration) against the recurring cost it ends:
	// traversals that re-read edges across rounds (SSSP/CC relaxation
	// sweeps) amortize the buy even when no single round does.
	SpentSeconds float64
}

// LinkCosts prices the substrates of partitions homed behind one link.
type LinkCosts struct {
	// ReadBytesPerSec is the effective zero-copy streaming rate for
	// cache-line requests (wire + tag overhead included).
	ReadBytesPerSec float64
	// TagSeconds is the tag-occupancy cost of one outstanding zero-copy
	// read (RTT over the in-flight tag budget).
	TagSeconds float64
	// BulkBytesPerSec is the explicit-copy (DMA) rate, paid by staging
	// copies and host-cache promotions out of the tier.
	BulkBytesPerSec float64
	// UVMBytesPerSec is the effective page-migration rate (transfer plus
	// serialized fault handling).
	UVMBytesPerSec float64
}

// readSeconds is the zero-copy cost of reading bytes as requests over the
// link: a pipelined request stream finishes when both the wire and the tag
// window drain, so it is the larger of the two occupancies, mirroring the
// link's stream model.
func (l LinkCosts) readSeconds(bytes, requests int64) float64 {
	t := float64(bytes) / l.ReadBytesPerSec
	if tag := float64(requests) * l.TagSeconds; tag > t {
		t = tag
	}
	return t
}

// CostParams carries the platform-derived constants a policy's cost model
// needs. The engine fills it once per run from the device configuration, so
// Decide stays a pure function of its arguments.
type CostParams struct {
	// Host prices partitions homed in pinned host DRAM, read over PCIe.
	Host LinkCosts
	// CXL prices CXL-homed partitions, read over the CXL link. Zero on
	// two-tier systems, where no partition is CXL-homed and it is never
	// read.
	CXL LinkCosts
	// UVMChunkBytes is the migration amplification granule: touching a cold
	// UVM-bound partition drags in at least this many bytes (the driver's
	// aligned prefetch block).
	UVMChunkBytes int64
	// StagedBudgetBytes caps the total bytes of explicitly staged segments
	// (GPU memory left after allocations, with headroom). Negative means
	// unlimited.
	StagedBudgetBytes int64
	// UVMBudgetBytes is the page cache capacity backing UVM-bound
	// partitions. Binding more than this does not fail — the driver's LRU
	// silently evicts — but residency stops being sticky: every round
	// re-migrates chunks, so an over-budget UVM incumbent costs its
	// migration again instead of zero. Negative means unlimited.
	UVMBudgetBytes int64
	// HostCacheBudgetBytes caps the total bytes of CXL-homed partitions
	// promoted into host DRAM copies. Negative means unlimited.
	HostCacheBudgetBytes int64
	// HoldRounds is the hysteresis dwell: a partition keeps its substrate
	// for at least this many rounds before switching again.
	HoldRounds int
	// SwitchMargin is the hysteresis margin: a new substrate must beat the
	// current one's estimated cost by this factor to displace it.
	SwitchMargin float64
}

// home returns the costs of the link a partition's in-place reads cross.
func (c *CostParams) home(cxl bool) LinkCosts {
	if cxl {
		return c.CXL
	}
	return c.Host
}

// TransportPolicy decides, per partition per round, which substrate serves
// each edge-list partition. Decide must be a pure function of its arguments
// — no clocks, no randomness, no retained state — so decision sequences
// replay identically across retries and are independent of host worker
// count (the determinism suite pins this).
type TransportPolicy interface {
	// Name is the stable registry identifier ("static-zc", "static-uvm",
	// "adaptive").
	Name() string
	// Description is a one-line human summary for /v1/transports.
	Description() string
	// Static returns the fixed transport the policy binds everything to for
	// the whole run, with ok true; ok false means the policy is routed:
	// decisions are per partition per round through Decide.
	Static() (t Transport, ok bool)
	// Decide writes one Choice per partition into out (len(out) ==
	// len(parts) == len(state)). round is the round about to execute.
	Decide(round int, parts []PartitionStats, state []PartitionState, costs CostParams, out []Choice)
}

// policyBase returns the space a policy's graph buffers are allocated in:
// the static transport for static policies, pinned host memory for routed
// ones (routing rebinds segments at run time on top of the pinned base).
func policyBase(p TransportPolicy) Transport {
	if t, ok := p.Static(); ok {
		return t
	}
	return ZeroCopy
}

// staticPolicy reproduces the pre-policy behavior for one Transport. Loaded
// under it, a graph takes exactly the historical code path: no router, no
// density accounting, no per-round decisions (golden-pinned bit-for-bit).
// Used as an override on a graph whose base transport differs, it degrades
// gracefully to a routed run that binds every partition to its transport.
type staticPolicy struct {
	t Transport
}

func (s staticPolicy) Name() string {
	if s.t == UVM {
		return "static-uvm"
	}
	return "static-zc"
}

func (s staticPolicy) Description() string {
	if s.t == UVM {
		return "edge list in managed memory; 4KB pages migrate on first touch (the paper's UVM baseline)"
	}
	return "edge list pinned in host memory; every access is a coalesced zero-copy PCIe read (EMOGI)"
}

func (s staticPolicy) Static() (Transport, bool) { return s.t, true }

func (s staticPolicy) Decide(round int, parts []PartitionStats, state []PartitionState, costs CostParams, out []Choice) {
	c := ChoiceZeroCopy
	if s.t == UVM {
		c = ChoiceUVM
	}
	for i := range out {
		out[i] = c
	}
}

// StaticPolicyFor returns the static policy reproducing the given
// transport's historical behavior.
func StaticPolicyFor(t Transport) TransportPolicy { return staticPolicy{t} }

// adaptivePolicy implements the HyTGraph rule: per partition, compare the
// estimated transfer cost of each substrate against the bytes the coming
// round is expected to access, and pick the cheapest — with hysteresis (a
// dwell time plus a switch margin) so oscillating frontiers don't thrash
// partitions between substrates. The two copy substrates (staging in GPU
// memory, host-DRAM copies of CXL-homed partitions) are each bounded by a
// budget; partitions that overflow one fall back to the cheaper of in-place
// reads and UVM.
type adaptivePolicy struct{}

func (adaptivePolicy) Name() string { return "adaptive" }

func (adaptivePolicy) Description() string {
	return "per-partition cost model rebinds edge segments between zero-copy, UVM, and explicit staging each round (HyTGraph-style)"
}

func (adaptivePolicy) Static() (Transport, bool) { return ZeroCopy, false }

// cost returns the estimated time for one partition to serve the coming
// round's AccessedBytes through each substrate. uvmThrash reports that the
// UVM-bound working set exceeds the page cache, so an incumbent's residency
// cannot be trusted: it pays its chunk migration every round like a
// newcomer. In-place reads, staging copies and page migrations are priced at
// the partition's home link; cached is the host-cache substrate's cost
// (promotion plus DRAM-rate reads), +Inf for DRAM-homed partitions, which
// have nothing to promote.
func adaptiveCosts(p PartitionStats, st PartitionState, costs CostParams, uvmThrash bool) (zc, staged, uvmc, cached float64) {
	link := costs.home(p.CXLHome)
	zc = link.readSeconds(p.AccessedBytes, p.Requests)
	if st.Staged {
		staged = 0 // copy already resident: served from HBM
	} else {
		staged = float64(p.Bytes) / link.BulkBytesPerSec
	}
	if st.Choice == ChoiceUVM && !uvmThrash {
		uvmc = 0 // pages migrated when the partition was bound: served from HBM
	} else {
		chunk := costs.UVMChunkBytes
		if chunk < p.Bytes {
			chunk = p.Bytes
		}
		uvmc = float64(chunk) / link.UVMBytesPerSec
	}
	if !p.CXLHome {
		cached = math.Inf(1)
	} else {
		// Host cache: DRAM-rate zero-copy reads, plus — when the copy is
		// not already resident — the one-time bulk promotion over the CXL
		// link.
		cached = costs.Host.readSeconds(p.AccessedBytes, p.Requests)
		if !st.HostCached {
			cached += float64(p.Bytes) / costs.CXL.BulkBytesPerSec
		}
	}
	return zc, staged, uvmc, cached
}

func (adaptivePolicy) Decide(round int, parts []PartitionStats, state []PartitionState, costs CostParams, out []Choice) {
	margin := costs.SwitchMargin
	if margin <= 0 {
		margin = 1
	}
	// UVM residency check: when more bytes are UVM-bound than the page
	// cache holds, the LRU is thrashing — incumbents pay migration every
	// round, and escaping that is an emergency the dwell must not block.
	var uvmBound int64
	for i := range state {
		if state[i].Choice == ChoiceUVM {
			uvmBound += parts[i].Bytes
		}
	}
	uvmThrash := costs.UVMBudgetBytes >= 0 && uvmBound > costs.UVMBudgetBytes
	// Phase 1: per-partition desired substrate by cost, with hysteresis
	// against the current binding.
	for i := range parts {
		st := state[i]
		out[i] = st.Choice
		dwellOK := st.Since < 0 || round-st.Since >= costs.HoldRounds ||
			(st.Choice == ChoiceUVM && uvmThrash)
		if parts[i].AccessedBytes == 0 {
			// Cold partition: after the dwell, release non-zero-copy
			// bindings so staged budget, host-cache budget, and UVM
			// capacity go to live ones. A cold copy still held occupies
			// its budget; phase 2 sees it at density zero, so it is the
			// first evicted when the budget tightens.
			if st.Choice != ChoiceZeroCopy && dwellOK {
				out[i] = ChoiceZeroCopy
			}
			continue
		}
		zc, staged, uvmc, cached := adaptiveCosts(parts[i], st, costs, uvmThrash)
		cur := zc
		switch st.Choice {
		case ChoiceStaged:
			cur = staged
		case ChoiceUVM:
			cur = uvmc
		case ChoiceHostCached:
			cur = cached
		}
		// Ski-rental: a zero-copy incumbent is charged the rent it has
		// already paid on top of this round's, so a one-time buy (staging
		// copy, page migration, host-cache promotion) wins once the
		// recurring reads it would end have accumulated past it — the
		// cross-round reuse a single-round comparison cannot see.
		if st.Choice == ChoiceZeroCopy {
			cur += st.SpentSeconds
		}
		best, bestCost := st.Choice, cur
		// Fixed evaluation order keeps ties deterministic; a challenger must
		// beat the incumbent by the margin, and only after the dwell. The
		// host-cache candidate exists only for CXL-homed partitions (it is
		// +Inf otherwise, so listing it unconditionally is safe and keeps
		// the order fixed).
		for _, cand := range [...]struct {
			c    Choice
			cost float64
		}{{ChoiceZeroCopy, zc}, {ChoiceStaged, staged}, {ChoiceUVM, uvmc}, {ChoiceHostCached, cached}} {
			if cand.c == st.Choice {
				continue
			}
			if cand.cost*margin < bestCost && dwellOK {
				best, bestCost = cand.c, cand.cost
			}
		}
		out[i] = best
	}
	// Phase 2: enforce the budget of each copy substrate. Already-resident
	// copies keep their slot first (stability); new admissions go
	// densest-first. An over-budget partition falls back to the cheaper of
	// in-place reads and UVM, charging a zero-copy incumbent its accumulated
	// rent (the same ski-rental comparison phase 1 applies); a UVM incumbent
	// keeps its pages. It never falls back to the other copy substrate,
	// whose budget is settled without it.
	admit := func(c Choice, budget int64, resident func(PartitionState) bool) {
		if budget < 0 {
			return
		}
		var want []int
		for i := range out {
			if out[i] == c {
				want = append(want, i)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			ia, ib := want[a], want[b]
			if ra, rb := resident(state[ia]), resident(state[ib]); ra != rb {
				return ra
			}
			if parts[ia].AccessedBytes != parts[ib].AccessedBytes {
				return parts[ia].AccessedBytes > parts[ib].AccessedBytes
			}
			return ia < ib
		})
		var used int64
		for _, i := range want {
			if used+parts[i].Bytes <= budget {
				used += parts[i].Bytes
				continue
			}
			zc, _, uvmc, _ := adaptiveCosts(parts[i], state[i], costs, uvmThrash)
			if state[i].Choice == ChoiceZeroCopy {
				zc += state[i].SpentSeconds
			}
			if uvmc*margin < zc || state[i].Choice == ChoiceUVM {
				out[i] = ChoiceUVM
			} else {
				out[i] = ChoiceZeroCopy
			}
		}
	}
	admit(ChoiceStaged, costs.StagedBudgetBytes, func(st PartitionState) bool { return st.Staged })
	admit(ChoiceHostCached, costs.HostCacheBudgetBytes, func(st PartitionState) bool { return st.HostCached })
}

// AdaptivePolicy returns the HyTGraph-style cost-model policy.
func AdaptivePolicy() TransportPolicy { return adaptivePolicy{} }

// TransportPolicies returns the selectable policies in a fixed order (the
// order /v1/transports lists them in).
func TransportPolicies() []TransportPolicy {
	return []TransportPolicy{
		StaticPolicyFor(ZeroCopy),
		StaticPolicyFor(UVM),
		AdaptivePolicy(),
	}
}

// PolicyByName resolves a policy by registry name. The v1 transport
// spellings ("zerocopy", "zc", "emogi", "uvm") are accepted as aliases of
// their static policies.
func PolicyByName(name string) (TransportPolicy, error) {
	switch name {
	case "static-zc", "zerocopy", "zc", "emogi":
		return StaticPolicyFor(ZeroCopy), nil
	case "static-uvm", "uvm":
		return StaticPolicyFor(UVM), nil
	case "adaptive":
		return AdaptivePolicy(), nil
	}
	return nil, fmt.Errorf("core: unknown transport policy %q (have static-zc, static-uvm, adaptive)", name)
}

// policyOverrideKey carries a per-run TransportPolicy override through
// context — how the service's degradation ladder reroutes a retry onto UVM
// without reloading the graph or threading a parameter through every
// registry entry point.
type policyOverrideKey struct{}

// WithPolicyOverride returns a context that makes traversal runs under it
// use p instead of the device graph's loaded policy. An override whose
// static base matches the graph's transport is a no-op; any other override
// runs routed (every partition bound per round by the override's Decide).
func WithPolicyOverride(ctx context.Context, p TransportPolicy) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, policyOverrideKey{}, p)
}

// PolicyOverrideFrom returns the override installed by WithPolicyOverride,
// or nil.
func PolicyOverrideFrom(ctx context.Context) TransportPolicy {
	if ctx == nil {
		return nil
	}
	p, _ := ctx.Value(policyOverrideKey{}).(TransportPolicy)
	return p
}

// runPolicy is one run's resolved transport policy.
type runPolicy struct {
	pol    TransportPolicy // the ctx override, else the graph's; nil only without a graph
	routed bool            // per-partition runtime instead of the static fast path
	label  string          // the run's telemetry transport label
	name   string          // Result.Policy
}

// effectivePolicy resolves the policy governing one run of dg under ctx and
// whether the run must be routed (per-partition runtime) rather than taking
// the static fast path. The fast path requires a static policy whose
// transport matches the space the graph was actually allocated in;
// everything else routes. memsys guarantees the router granule exists for
// any buffer, so routing needs no re-upload. A fast-path run is labeled
// with base, its transport; a routed run with the policy's name.
func effectivePolicy(ctx context.Context, dg *DeviceGraph, base Transport) runPolicy {
	rp := runPolicy{label: base.String()}
	if dg == nil {
		return rp
	}
	rp.pol = dg.Policy
	if o := PolicyOverrideFrom(ctx); o != nil {
		rp.pol = o
	}
	rp.name = rp.pol.Name()

	t, static := rp.pol.Static()
	if rp.routed = !static || t != dg.Transport; rp.routed {
		rp.label = rp.name
	}
	return rp
}
