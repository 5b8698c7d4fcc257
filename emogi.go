// Package emogi is the public API of the EMOGI reproduction: efficient
// out-of-memory graph traversal on GPUs via cache-line-sized zero-copy
// host-memory access (Min et al., VLDB 2020), running on a calibrated
// software simulation of the GPU memory system.
//
// A System is one simulated machine (GPU + host memory + PCIe link).
// Graphs are loaded onto it with a transport (ZeroCopy for EMOGI, UVM for
// the baseline) and traversed by algorithm name in one of the paper's
// three kernel variants. All functional results are exact (validated
// against CPU references); all performance numbers are simulated time from
// the calibrated model described in DESIGN.md.
//
//	sys := emogi.NewSystem(emogi.V100PCIe3(1.0))
//	g, _ := emogi.BuildDataset("GK", 1.0, 42)
//	dg, _ := sys.Load(g)
//	res, _ := sys.Do(ctx, emogi.Request{Graph: dg, Algo: "bfs", Src: src, Variant: emogi.MergedAligned})
//	fmt.Println(res.Elapsed, res.Stats.PCIeRequests)
//
// Do is the one traversal entry point: it accepts per-request
// cancellation and deadlines (a canceled run stops at the next round
// boundary with an error matching ErrCanceled) and is safe for concurrent
// use — runs serialize on the device.
package emogi

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
	"repro/internal/telemetry"
)

// Re-exported types so user code only imports this package.
type (
	// Graph is a CSR graph in host memory.
	Graph = graph.CSR
	// DeviceGraph is a graph loaded onto a System.
	DeviceGraph = core.DeviceGraph
	// Result is one traversal run's output and counters.
	Result = core.Result
	// Variant selects the kernel access pattern.
	Variant = core.Variant
	// Transport selects where the edge list lives.
	Transport = core.Transport
	// TransportPolicy decides, per edge-list partition per round, which
	// substrate (zero-copy, UVM, explicit staging) serves each partition.
	// Build one with StaticPolicy or AdaptivePolicy, or resolve a name with
	// PolicyByName.
	TransportPolicy = core.TransportPolicy
	// Telemetry receives per-launch, per-round, and per-copy events from
	// the simulated device (see internal/telemetry for the Prometheus and
	// Chrome-trace implementation).
	Telemetry = gpu.Telemetry
	// RunLabels identifies one traversal run on a telemetry stream.
	RunLabels = gpu.RunLabels
	// Algorithm is one entry of the traversal-algorithm registry.
	Algorithm = core.Algorithm
	// CanceledError reports a traversal stopped cooperatively at a round
	// boundary through its context.
	CanceledError = core.CanceledError
	// UnknownAlgorithmError reports a Request.Algo not in the registry;
	// its message lists every valid name.
	UnknownAlgorithmError = core.UnknownAlgorithmError
	// TransientError reports a traversal aborted by an injected transient
	// read fault; the device graph remains loaded and re-traversable, and
	// a retry sees fresh fault outcomes.
	TransientError = core.TransientError
	// FaultInjector is a seeded, reproducible fault source attached via
	// SystemConfig.Faults (build one with fault.Profile / fault.New).
	FaultInjector = fault.Injector
	// FaultCounts is a snapshot of an injector's per-kind fault tallies.
	FaultCounts = fault.Counts
	// BatchItem is one lane's outcome of a batched run: exactly one of
	// Res and Err is set.
	BatchItem = core.BatchItem
	// BatchOutcome reports one DoBatch dispatch: per-lane results plus
	// the edge-scan sharing the batch achieved.
	BatchOutcome = core.BatchOutcome
)

// ErrCanceled matches any traversal stopped through its context:
// errors.Is(err, emogi.ErrCanceled).
var ErrCanceled = core.ErrCanceled

// ErrTransient matches any run failed by injected transient faults —
// aborted traversals (*TransientError) and injected allocation failures
// alike: errors.Is(err, emogi.ErrTransient). Transient failures are
// retryable; the serving layer's retry/degradation machinery keys off it.
var ErrTransient = fault.ErrTransient

// Kernel variants (§5.1.2).
const (
	Naive         = core.Naive
	Merged        = core.Merged
	MergedAligned = core.MergedAligned
)

// Edge-list transports.
const (
	ZeroCopy = core.ZeroCopy
	UVM      = core.UVM
)

// StaticPolicy returns the transport policy that binds the whole edge list
// to one transport for the whole run ("static-zc" for ZeroCopy,
// "static-uvm" for UVM).
func StaticPolicy(t Transport) TransportPolicy { return core.StaticPolicyFor(t) }

// AdaptivePolicy returns the HyTGraph-style policy: a per-partition cost
// model rebinds 64KB edge-list segments between zero-copy, UVM, and
// explicit staging at every round boundary, with hysteresis. See DESIGN.md
// §15.
func AdaptivePolicy() TransportPolicy { return core.AdaptivePolicy() }

// TransportPolicies returns the selectable policies in registry order
// (static-zc, static-uvm, adaptive) — what GET /v1/transports serves.
func TransportPolicies() []TransportPolicy { return core.TransportPolicies() }

// PolicyByName resolves a transport policy by registry name ("static-zc",
// "static-uvm", "adaptive"; the v1 spellings "zerocopy", "zc", "emogi",
// "uvm" are accepted as aliases).
func PolicyByName(name string) (TransportPolicy, error) { return core.PolicyByName(name) }

// Scale is the repository's standard dataset reduction: every dataset and
// every memory capacity is 1/1000 of the paper's, preserving all the
// capacity ratios the results depend on.
const Scale = 1.0 / 1000.0

// SystemConfig describes one simulated machine.
type SystemConfig struct {
	Name string

	// GPU is the simulated device. Its Tiers field is the machine's memory
	// hierarchy (HBM → host DRAM → optional CXL-class external memory);
	// build stacks with TwoTier / ThreeTierCXL, or apply a named catalog
	// stack with ApplyTierStack.
	GPU gpu.Config

	// Workers, when non-zero, overrides GPU.Workers: the number of host
	// goroutines each kernel launch spreads its warps over (0 selects
	// GOMAXPROCS, 1 runs warps serially). Simulated results — values,
	// iteration counts, elapsed time, every counter — are bit-for-bit
	// identical for every worker count; only host wall-clock time changes.
	Workers int

	// Telemetry, when non-nil, observes every kernel launch, traversal
	// round, and bulk copy on the system's device. Nil (the default) keeps
	// the hook points disabled at zero cost.
	Telemetry Telemetry

	// Faults, when non-nil, injects deterministic faults into the system:
	// per-request transient read failures and latency spikes on the host
	// DRAM tier's PCIe link, a steady wire derating, and allocation
	// failures in the memory arena (see internal/fault for the profiles
	// and the determinism contract). Nil (the default) keeps every hot
	// path zero-overhead and bit-for-bit identical to the fault-free
	// system.
	Faults FaultInjector
}

// scaleBytes scales a full-size capacity down by Scale times the user's
// additional dataset scale factor.
func scaleBytes(fullBytes int64, datasetScale float64) int64 {
	return int64(float64(fullBytes) * Scale * datasetScale)
}

// V100PCIe3 returns the paper's main evaluation platform (Table 1): a
// Tesla V100 16GB on PCIe 3.0 x16 with quad-channel DDR4 host memory,
// scaled to the given dataset scale (1.0 = the standard 1:1000 reduction).
func V100PCIe3(datasetScale float64) SystemConfig {
	return SystemConfig{
		Name: "V100 + PCIe 3.0",
		GPU: gpu.Config{
			Name: "Tesla V100 16GB",
			Tiers: memsys.TwoTier(scaleBytes(16<<30, datasetScale), scaleBytes(256<<30, datasetScale),
				memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
			L2Bytes:            scaleBytes(6<<20, datasetScale),
			MaxConcurrentLanes: scaleLanes(80*2048, datasetScale),
		},
	}
}

// scaleLanes scales the hardware thread concurrency with the dataset so
// the concurrent-streams-to-cache ratio of the full-size machine is
// preserved (see DESIGN.md).
func scaleLanes(fullLanes int, datasetScale float64) int {
	n := int(float64(fullLanes) * Scale * datasetScale)
	if n < 1 {
		n = 1
	}
	return n
}

// TitanXpPCIe3 returns the HALO comparison platform (Table 3): a Titan Xp
// 12GB on PCIe 3.0.
func TitanXpPCIe3(datasetScale float64) SystemConfig {
	return SystemConfig{
		Name: "Titan Xp + PCIe 3.0",
		GPU: gpu.Config{
			Name: "Titan Xp 12GB",
			Tiers: memsys.TwoTier(scaleBytes(12<<30, datasetScale), scaleBytes(256<<30, datasetScale),
				memsys.GDDR5XTitanXp(), memsys.DDR4Quad(), pcie.Gen3x16()),
			L2Bytes:            scaleBytes(3<<20, datasetScale),
			MaxConcurrentLanes: scaleLanes(60*2048, datasetScale),
		},
	}
}

// A100PCIe3 returns the DGX A100 platform (§5.5) with the root port forced
// to PCIe 3.0 mode.
func A100PCIe3(datasetScale float64) SystemConfig {
	cfg := A100PCIe4(datasetScale)
	cfg.Name = "A100 + PCIe 3.0"
	cfg.GPU.Tiers.DRAM().Link = pcie.Gen3x16()
	return cfg
}

// A100PCIe4 returns the DGX A100 platform (§5.5): an A100 40GB on PCIe 4.0
// x16 with 1TB of host memory.
func A100PCIe4(datasetScale float64) SystemConfig {
	return SystemConfig{
		Name: "A100 + PCIe 4.0",
		GPU: gpu.Config{
			Name: "A100 40GB",
			Tiers: memsys.TwoTier(scaleBytes(40<<30, datasetScale), scaleBytes(1<<40, datasetScale),
				memsys.HBM2eA100(), memsys.DDR4Quad(), pcie.Gen4x16()),
			L2Bytes:            scaleBytes(40<<20, datasetScale),
			MaxConcurrentLanes: scaleLanes(108*2048, datasetScale),
		},
	}
}

// System is one simulated machine ready to load and traverse graphs.
type System struct {
	cfg SystemConfig
	dev *gpu.Device
}

// NewSystem builds a System from the given configuration.
func NewSystem(cfg SystemConfig) *System {
	if cfg.Workers != 0 {
		cfg.GPU.Workers = cfg.Workers
	}
	if dram := cfg.GPU.Tiers.DRAM(); cfg.Faults != nil && dram != nil {
		// The injector rides the host link of a private copy of the stack,
		// so the caller's configuration stays fault-free.
		cfg.GPU.Tiers = slices.Clone(cfg.GPU.Tiers)
		cfg.GPU.Tiers.DRAM().Link.Faults = cfg.Faults
	}
	s := &System{cfg: cfg, dev: gpu.NewDevice(cfg.GPU)}
	if cfg.Telemetry != nil {
		s.dev.SetTelemetry(cfg.Telemetry)
	}
	if cfg.Faults != nil {
		inj := cfg.Faults
		s.dev.Arena().SetAllocFaultHook(func(_ memsys.Space, size int64) error {
			return inj.AllocFault(size)
		})
	}
	return s
}

// Faults returns the system's fault injector, or nil when injection is
// disabled.
func (s *System) Faults() FaultInjector { return s.cfg.Faults }

// Config returns the system's configuration.
func (s *System) Config() SystemConfig { return s.cfg }

// Device exposes the underlying simulated GPU (traffic monitor, clock,
// statistics, telemetry attachment) for instrumentation-heavy callers like
// the benchmark harness.
func (s *System) Device() *gpu.Device { return s.dev }

// LoadOption configures Load.
type LoadOption func(*loadConfig)

type loadConfig struct {
	policy    TransportPolicy
	elemBytes int
	placement Placement
	tiers     TierStack
}

// WithTransportPolicy selects the transport policy governing the graph's
// edge list: StaticPolicy(ZeroCopy) (EMOGI, the default), StaticPolicy(UVM)
// (the migration baseline), or AdaptivePolicy() (per-partition per-round
// HyTGraph-style rebinding). Static policies take exactly the historical
// code path; routed policies allocate the edge list pinned and rebind
// segments at run time.
func WithTransportPolicy(p TransportPolicy) LoadOption {
	return func(c *loadConfig) { c.policy = p }
}

// WithElemBytes sets the edge element width: 8 (the paper's main
// experiments, the default) or 4 (the Subway comparison, Table 3).
func WithElemBytes(n int) LoadOption {
	return func(c *loadConfig) { c.elemBytes = n }
}

// WithTierStack replaces the system's memory-tier stack before placing the
// graph — the load-time route to a CXL-class external tier on a system
// built without one. The stack's HBM and DRAM tiers must equal the
// system's (only the CXL tier may differ); Load fails otherwise. Systems
// whose GPU.Tiers already has a CXL tier don't need this option.
func WithTierStack(ts TierStack) LoadOption {
	return func(c *loadConfig) { c.tiers = ts }
}

// WithPlacement selects which host-side tier(s) the edge and weight lists
// are homed on: PlaceAuto (host DRAM with CXL spill under pressure, the
// default), PlaceDRAM (DRAM only, fail when full), or PlaceCXL (external
// tier only). A no-op on two-tier systems except that PlaceCXL fails.
func WithPlacement(p Placement) LoadOption {
	return func(c *loadConfig) { c.placement = p }
}

// Load places a graph onto the system: the vertex list in GPU memory, the
// edge list (and weights) in host memory. The defaults — the static
// zero-copy policy, 8-byte edge elements — are the paper's main
// configuration; override them with WithTransportPolicy and WithElemBytes.
func (s *System) Load(g *Graph, opts ...LoadOption) (*DeviceGraph, error) {
	c := loadConfig{policy: StaticPolicy(ZeroCopy), elemBytes: 8}
	for _, o := range opts {
		o(&c)
	}
	if c.tiers != nil {
		if err := s.dev.SetTiers(c.tiers); err != nil {
			return nil, fmt.Errorf("emogi: WithTierStack: %w", err)
		}
	}
	return core.UploadPolicyPlaced(s.dev, g, c.policy, c.elemBytes, c.placement)
}

// Unload releases a loaded graph's buffers. It is idempotent: unloading
// a graph twice, or unloading nil, is a no-op.
func (s *System) Unload(dg *DeviceGraph) { dg.Free(s.dev) }

// Request describes one traversal for Do.
type Request struct {
	// Graph is the loaded graph to traverse (required).
	Graph *DeviceGraph
	// Algo is the algorithm registry name: the built-in applications
	// ("bfs", "sssp", "cc", "sswp") and the specialty traversals
	// ("bfs-worker8", "bfs-pushpull", "bfs-compressed", "bfs-edgecentric");
	// see Algorithms for the full list.
	Algo string
	// Src is the source vertex (ignored by source-free algorithms).
	Src int
	// Variant selects the kernel access pattern (ignored by
	// fixed-variant specialty kernels).
	Variant Variant
	// Cold evicts UVM residency and staged edge segments before the run,
	// so it starts with cold caches like the paper's measurement
	// discipline (§5.2). Zero-copy runs are unaffected; for UVM and routed
	// policy runs it makes results independent of what ran before.
	Cold bool
	// Placement, when not PlaceAuto, re-homes the graph's edge and weight
	// segments onto the named host-side tier before the run (sticky: the
	// graph keeps the new homes afterward). The data movement is charged
	// over the CXL link. PlaceAuto (the zero value) keeps the graph's
	// current homes — the two-tier behavior.
	Placement Placement
	// Policy, when non-nil, overrides the graph's loaded transport policy
	// for this request only. An override whose static transport matches
	// the graph's is a no-op; any other override runs routed (every
	// partition bound per round by the override). This is how the serving
	// layer's degradation ladder reroutes retries onto static-uvm without
	// reloading the graph.
	Policy TransportPolicy
	// Ctx, when non-nil, is this request's own context inside DoBatch:
	// when it is done, the request's lane detaches at the next round
	// boundary (its BatchItem reports a *CanceledError) while the batch
	// keeps running for the other requests. Do ignores it — pass the
	// context to Do directly.
	Ctx context.Context
}

// Do executes one traversal by algorithm registry name:
//
//   - Cancellation: when ctx is canceled or its deadline passes, the run
//     stops at the next round boundary and Do returns a *CanceledError
//     matching both ErrCanceled and the context cause. The device is left
//     exactly as a completed run leaves it.
//   - Concurrency: Do is safe for concurrent use; runs serialize on the
//     simulated device (one traversal owns the device clock and memory
//     system at a time, like a real CUDA context).
//
// An unknown Request.Algo returns an *UnknownAlgorithmError listing the
// valid names.
func (s *System) Do(ctx context.Context, req Request) (*Result, error) {
	if req.Graph == nil {
		return nil, fmt.Errorf("emogi: Do requires Request.Graph (load one with Load)")
	}
	if req.Algo == "" {
		return nil, fmt.Errorf("emogi: Do requires Request.Algo (valid algorithms: %s)",
			strings.Join(core.AlgorithmNames(), ", "))
	}
	if req.Policy != nil {
		ctx = core.WithPolicyOverride(ctx, req.Policy)
	}
	var res *Result
	var err error
	s.dev.Exclusive(func() {
		defer s.bindTrace(ctx)()
		if req.Placement != PlaceAuto {
			if err = core.ApplyPlacement(s.dev, req.Graph, req.Placement); err != nil {
				return
			}
		}
		if req.Cold {
			s.dev.ResetUVMResidency()
		}
		res, err = core.RunAlgo(ctx, s.dev, req.Graph, req.Algo, req.Src, req.Variant)
	})
	return res, err
}

// bindTrace attributes the run's device events (traversal rounds) to the
// request trace carried by ctx, when there is one and the system's
// telemetry sink can accept it. It must be called under s.dev.Exclusive —
// runs serialize there, so at most one trace is ever bound — and returns
// the unbind func (a no-op when nothing was bound). The nil path costs one
// context lookup and zero allocations, preserving the disabled-telemetry
// fast path.
func (s *System) bindTrace(ctx context.Context) func() {
	rt := telemetry.TraceFrom(ctx)
	if rt == nil {
		return func() {}
	}
	b, ok := s.dev.Telemetry().(telemetry.TraceBinder)
	if !ok {
		return func() {}
	}
	b.BindTrace(rt)
	return b.UnbindTrace
}

// DoBatch executes up to K traversals of the same (Graph, Algo, Variant)
// as one batched engine run: a per-vertex lane bitmask carries every
// query through a single fixed-point loop, so each edge scan serves all
// lanes whose frontier covers it (see DESIGN.md §13). Requirements and
// semantics:
//
//   - All requests must name the same loaded Graph, the same Algo, and
//     the same Variant — batching shares one sweep, so the keys must
//     agree. Sources may differ (and may repeat).
//   - Each request's lane produces the bit-for-bit Values and Iterations
//     an individual Do of that request returns; Elapsed and Stats on
//     each Result describe the shared batched run (Result.BatchSize
//     records the width).
//   - ctx governs the whole batch: cancellation aborts every lane with
//     an error matching ErrCanceled. A request's own Request.Ctx
//     detaches just that lane at the next round boundary; the batch
//     continues for the rest.
//   - Algorithms without a batched mode (source-free and fixed-variant
//     specialty kernels) run each lane sequentially with identical
//     per-lane semantics; BatchOutcome.BatchedRun reports false.
//
// Like Do, DoBatch is safe for concurrent use and serializes on the
// device.
func (s *System) DoBatch(ctx context.Context, reqs []Request) (*BatchOutcome, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("emogi: DoBatch requires at least one request")
	}
	first := reqs[0]
	if first.Graph == nil {
		return nil, fmt.Errorf("emogi: DoBatch requires Request.Graph (load one with Load)")
	}
	if first.Algo == "" {
		return nil, fmt.Errorf("emogi: DoBatch requires Request.Algo (valid algorithms: %s)",
			strings.Join(core.AlgorithmNames(), ", "))
	}
	specs := make([]core.BatchSpec, len(reqs))
	for i, r := range reqs {
		if r.Graph != first.Graph {
			return nil, fmt.Errorf("emogi: DoBatch request %d names a different graph; a batch shares one (graph, algo, variant)", i)
		}
		if r.Algo != first.Algo {
			return nil, fmt.Errorf("emogi: DoBatch request %d names algo %q, want %q; a batch shares one (graph, algo, variant)", i, r.Algo, first.Algo)
		}
		if r.Variant != first.Variant {
			return nil, fmt.Errorf("emogi: DoBatch request %d names variant %v, want %v; a batch shares one (graph, algo, variant)", i, r.Variant, first.Variant)
		}
		if r.Policy != first.Policy {
			return nil, fmt.Errorf("emogi: DoBatch request %d overrides the transport policy differently from request 0; a batch shares one policy", i)
		}
		specs[i] = core.BatchSpec{Src: r.Src, Ctx: r.Ctx}
	}
	if first.Policy != nil {
		ctx = core.WithPolicyOverride(ctx, first.Policy)
	}
	var out *BatchOutcome
	var err error
	s.dev.Exclusive(func() {
		defer s.bindTrace(ctx)()
		if first.Cold {
			s.dev.ResetUVMResidency()
		}
		out, err = core.RunBatchAlgo(ctx, s.dev, first.Graph, first.Algo, specs, first.Variant)
	})
	return out, err
}

// Algorithms lists the registered traversal algorithms sorted by name.
func Algorithms() []*Algorithm {
	return core.Algorithms()
}

// ResetStats clears the device clock, monitor, and counters between
// measurement runs while keeping loaded graphs in place.
func (s *System) ResetStats() { s.dev.ResetStats() }

// ColdCaches evicts all UVM pages so the next run starts cold, whatever
// transport policy it uses (staged edge-list copies never outlive a run).

func (s *System) ColdCaches() { s.dev.ResetUVMResidency() }

// BuildDataset synthesizes one of the paper's six Table 2 dataset analogs
// ("GK", "GU", "FS", "ML", "SK", "UK5") at the given scale (1.0 = the
// standard 1:1000 reduction; use the same scale as the SystemConfig).
func BuildDataset(sym string, datasetScale float64, seed int64) (*Graph, error) {
	spec, err := graph.BySym(sym)
	if err != nil {
		return nil, err
	}
	return spec.Build(datasetScale, seed), nil
}

// DatasetSymbols returns the six dataset symbols in Table 2 order.
func DatasetSymbols() []string {
	specs := graph.AllSpecs()
	syms := make([]string, len(specs))
	for i, s := range specs {
		syms[i] = s.Sym
	}
	return syms
}

// PickSources deterministically selects k traversal sources with outgoing
// edges, as in §5.2.
func PickSources(g *Graph, k int, seed int64) []int {
	return graph.PickSources(g, k, seed)
}

// Validate checks a result against the CPU reference implementation of its
// application.
func Validate(g *Graph, res *Result) error {
	if res == nil {
		return fmt.Errorf("emogi: nil result")
	}
	return res.Validate(g)
}
