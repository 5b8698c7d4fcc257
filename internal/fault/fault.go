// Package fault provides deterministic, seeded fault injection for the
// simulated memory hierarchy and interconnect. EMOGI's argument is about how
// the interconnect behaves under load, yet an analytic link model never
// fails on its own; real external-memory fabrics retrain to lower
// generations, drop completions, and exhibit microsecond-scale latency
// spikes (arXiv:2312.03113), and robust out-of-memory traversal systems
// switch transfer-management modes under pressure (HyTGraph,
// arXiv:2208.14935). An Injector imposes those behaviours on the simulator
// so the recovery machinery above it (engine abort paths, service retries,
// transport degradation) can be exercised reproducibly.
//
// Determinism contract. Every decision is a pure function of the injector's
// seed and the coordinates of the event being decided — (runEpoch, warp,
// per-warp request sequence) for link requests — never of wall-clock time or
// global call order. The parallel launch engine spreads warps across host
// workers in nondeterministic order; because decisions are coordinate-keyed,
// the set of injected faults (and therefore every merged kernel statistic)
// is bit-for-bit identical across worker counts and runs. The run epoch is
// mixed in so a retry of a faulted run sees fresh outcomes instead of
// deterministically hitting the same faults forever.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/pcie"
)

// ErrTransient is the sentinel matched (via errors.Is) by every error that
// originates from injected transient faults: the engine's *TransientError
// and the injector's *InjectedAllocError both identify as it. Callers use
// it to decide whether a failed run is worth retrying.
var ErrTransient = errors.New("transient injected fault")

// Counts is a snapshot of the injector's own tally of injected faults, by
// kind. The service layer diffs successive snapshots into the telemetry
// counters, so the exported emogi_faults_injected_total series is exactly
// consistent with the injector's view.
type Counts struct {
	// ReadFaults is the number of zero-copy read requests failed (ReqFail).
	ReadFaults uint64
	// Spikes is the number of latency spikes injected (ReqSpike).
	Spikes uint64
	// AllocFaults is the number of arena allocations failed.
	AllocFaults uint64
}

// Injector is a seeded, reproducible source of faults. It plugs into the
// link model as a pcie.FaultHook and into the memory system through an
// allocation hook adapter. Implementations are safe for concurrent use. A
// nil Injector everywhere means injection is disabled; every hook site is
// nil-checked so the disabled hot paths are zero-overhead.
type Injector interface {
	pcie.FaultHook

	// AllocFault decides whether one arena allocation of the given size
	// fails. A non-nil return is an *InjectedAllocError (transient: the
	// caller may retry). Unlike link requests, allocations happen under
	// the device run mutex, so a process-order sequence number is a stable
	// coordinate; successive attempts see fresh outcomes.
	AllocFault(size int64) error

	// Counts returns a snapshot of the faults injected so far.
	Counts() Counts

	// Name returns the profile name the injector was built from (or
	// "custom" for hand-built configs).
	Name() string
}

// InjectedAllocError is returned by Injector.AllocFault for an injected
// allocation failure. It matches ErrTransient via errors.Is.
type InjectedAllocError struct {
	// Size is the requested allocation size in bytes.
	Size int64
}

func (e *InjectedAllocError) Error() string {
	return fmt.Sprintf("fault: injected allocation failure (%d bytes)", e.Size)
}

// Is reports whether target is the transient-fault sentinel.
func (e *InjectedAllocError) Is(target error) bool { return target == ErrTransient }

// Config parameterizes an injector. Rates are per-event probabilities in
// [0, 1]; a zero rate disables that fault kind.
type Config struct {
	// Profile is the name reported by Injector.Name.
	Profile string

	// Seed keys every decision. The same seed reproduces the same faults
	// for the same workload, regardless of worker count.
	Seed uint64

	// ReadFaultRate is the probability that one zero-copy read request
	// fails transiently.
	ReadFaultRate float64

	// SpikeRate is the probability that one zero-copy read request incurs
	// a latency spike of SpikePenalty.
	SpikeRate float64

	// SpikePenalty is the simulated stall charged per injected spike.
	SpikePenalty time.Duration

	// WireScale >= 1 stretches per-request wire occupancy, modeling a link
	// retrained to a lower generation (e.g. Gen3 signaling falling back to
	// Gen1 rates). Values <= 1 mean a healthy wire.
	WireScale float64

	// AllocFaultRate is the probability that one arena allocation fails.
	AllocFaultRate float64
}

// Profile names understood by ProfileConfig.
const (
	// ProfileNone disables injection entirely (nil injector).
	ProfileNone = "none"
	// ProfileFlakyLink injects transient read failures at 1% per request
	// plus occasional latency spikes; the wire itself stays at full rate.
	ProfileFlakyLink = "flaky-link"
	// ProfileDegradedGen1 models a link retrained from Gen3 to Gen1
	// signaling: wire occupancy stretches ~3.9x and spikes are common, but
	// requests complete.
	ProfileDegradedGen1 = "degraded-gen1"
	// ProfileOOMPressure injects allocation failures, modeling device
	// memory pressure from co-tenant workloads.
	ProfileOOMPressure = "oom-pressure"
)

// Names returns the known profile names, sorted, for flag help text.
func Names() []string {
	names := []string{ProfileNone, ProfileFlakyLink, ProfileDegradedGen1, ProfileOOMPressure}
	sort.Strings(names)
	return names
}

// ProfileConfig returns the Config for a named profile with the given seed.
// The returned Config can be adjusted (e.g. overriding ReadFaultRate)
// before being passed to New.
func ProfileConfig(name string, seed uint64) (Config, error) {
	switch name {
	case ProfileNone, "":
		return Config{Profile: ProfileNone, Seed: seed}, nil
	case ProfileFlakyLink:
		return Config{
			Profile:       ProfileFlakyLink,
			Seed:          seed,
			ReadFaultRate: 0.01,
			SpikeRate:     0.002,
			SpikePenalty:  5 * time.Microsecond,
		}, nil
	case ProfileDegradedGen1:
		// Gen3 x16 moves ~7.88 Gb/s/lane post-encoding (8 GT/s, 128b/130b);
		// Gen1 moves 2.0 Gb/s/lane (2.5 GT/s, 8b/10b): a 3.94x stretch.
		return Config{
			Profile:      ProfileDegradedGen1,
			Seed:         seed,
			WireScale:    3.94,
			SpikeRate:    0.01,
			SpikePenalty: 10 * time.Microsecond,
		}, nil
	case ProfileOOMPressure:
		return Config{
			Profile:        ProfileOOMPressure,
			Seed:           seed,
			AllocFaultRate: 0.25,
		}, nil
	default:
		return Config{}, fmt.Errorf("fault: unknown profile %q (known: %v)", name, Names())
	}
}

// New builds an injector from a Config. A config with no fault kinds
// enabled (all rates zero, WireScale <= 1) returns (nil, nil) so callers
// can wire the result unconditionally and still get the zero-overhead
// disabled paths.
func New(cfg Config) (Injector, error) {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"ReadFaultRate", cfg.ReadFaultRate},
		{"SpikeRate", cfg.SpikeRate},
		{"AllocFaultRate", cfg.AllocFaultRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return nil, fmt.Errorf("fault: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	if cfg.SpikePenalty < 0 {
		return nil, fmt.Errorf("fault: negative SpikePenalty %v", cfg.SpikePenalty)
	}
	if math.IsNaN(cfg.WireScale) || math.IsInf(cfg.WireScale, 0) {
		return nil, fmt.Errorf("fault: invalid WireScale %v", cfg.WireScale)
	}
	if cfg.ReadFaultRate == 0 && cfg.SpikeRate == 0 && cfg.AllocFaultRate == 0 && cfg.WireScale <= 1 {
		return nil, nil
	}
	name := cfg.Profile
	if name == "" {
		name = "custom"
	}
	return &injector{
		cfg:         cfg,
		name:        name,
		readThresh:  rateThreshold(cfg.ReadFaultRate),
		spikeThresh: rateThreshold(cfg.SpikeRate),
		allocThresh: rateThreshold(cfg.AllocFaultRate),
	}, nil
}

// rateThreshold maps a probability to a threshold on a uniform 64-bit hash:
// the event fires when hash < threshold.
func rateThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return math.MaxUint64
	}
	return uint64(rate * float64(1<<63) * 2) // rate * 2^64, overflow-safe
}

type injector struct {
	cfg  Config
	name string

	readThresh  uint64
	spikeThresh uint64
	allocThresh uint64

	allocSeq atomic.Uint64

	readFaults  atomic.Uint64
	spikes      atomic.Uint64
	allocFaults atomic.Uint64
}

// splitmix64's finalizer: a fast full-avalanche 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds the event coordinates and a per-kind salt into a uniform
// 64-bit value keyed by the seed. Pure function of its arguments.
func (in *injector) hash(a, b, c, salt uint64) uint64 {
	h := in.cfg.Seed + 0x9e3779b97f4a7c15
	h = mix(h ^ a)
	h = mix(h ^ b)
	h = mix(h ^ c)
	return mix(h ^ salt)
}

// Per-kind salts keep the fail and spike decisions for the same request
// independent of each other.
const (
	saltRead  = 0x726561646661696c // "readfail"
	saltSpike = 0x6c617473706b6521 // "latspke!"
	saltAlloc = 0x616c6c6f63666c74 // "allocflt"
)

func (in *injector) RequestFault(epoch uint64, stream int, seq uint64, payloadBytes int) pcie.RequestOutcome {
	if in.readThresh > 0 && in.hash(epoch, uint64(stream), seq, saltRead) < in.readThresh {
		in.readFaults.Add(1)
		return pcie.ReqFail
	}
	if in.spikeThresh > 0 && in.hash(epoch, uint64(stream), seq, saltSpike) < in.spikeThresh {
		in.spikes.Add(1)
		return pcie.ReqSpike
	}
	return pcie.ReqOK
}

func (in *injector) WireScale() float64 {
	if in.cfg.WireScale > 1 {
		return in.cfg.WireScale
	}
	return 1
}

func (in *injector) SpikePenalty() time.Duration { return in.cfg.SpikePenalty }

func (in *injector) AllocFault(size int64) error {
	if in.allocThresh == 0 {
		return nil
	}
	seq := in.allocSeq.Add(1)
	if in.hash(seq, uint64(size), 0, saltAlloc) < in.allocThresh {
		in.allocFaults.Add(1)
		return &InjectedAllocError{Size: size}
	}
	return nil
}

func (in *injector) Counts() Counts {
	return Counts{
		ReadFaults:  in.readFaults.Load(),
		Spikes:      in.spikes.Load(),
		AllocFaults: in.allocFaults.Load(),
	}
}

func (in *injector) Name() string { return in.name }
