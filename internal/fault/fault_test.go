package fault

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/pcie"
)

// TestProfiles: every named profile builds, "none" is a nil injector, and
// unknown names error with the known list.
func TestProfiles(t *testing.T) {
	for _, name := range []string{ProfileFlakyLink, ProfileDegradedGen1, ProfileOOMPressure} {
		inj, err := profile(name, 7)
		if err != nil {
			t.Fatalf("profile(%q): %v", name, err)
		}
		if inj == nil {
			t.Fatalf("profile(%q) = nil injector", name)
		}
		if inj.Name() != name {
			t.Errorf("profile(%q).Name() = %q", name, inj.Name())
		}
	}
	for _, name := range []string{ProfileNone, ""} {
		inj, err := profile(name, 7)
		if err != nil || inj != nil {
			t.Errorf("profile(%q) = (%v, %v), want (nil, nil)", name, inj, err)
		}
	}
	if _, err := profile("flaky-lnik", 7); err == nil {
		t.Error("unknown profile name did not error")
	}
}

// TestNewValidation: rates outside [0,1] and other malformed configs are
// rejected; an all-disabled config collapses to a nil injector.
func TestNewValidation(t *testing.T) {
	bad := []Config{
		{ReadFaultRate: -0.1},
		{ReadFaultRate: 1.5},
		{SpikeRate: math.NaN()},
		{AllocFaultRate: 2},
		{ReadFaultRate: 0.5, SpikePenalty: -time.Second},
		{WireScale: math.Inf(1)},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted an invalid config", cfg)
		}
	}
	inj, err := New(Config{Seed: 3, WireScale: 0.5}) // <= 1 means healthy
	if err != nil || inj != nil {
		t.Errorf("all-disabled config: got (%v, %v), want (nil, nil)", inj, err)
	}
}

// TestRequestFaultDeterminism: decisions are pure functions of the
// coordinates — identical across injector instances with the same seed,
// regardless of query order — and different seeds decorrelate.
func TestRequestFaultDeterminism(t *testing.T) {
	mk := func(seed uint64) Injector {
		inj, err := New(Config{Seed: seed, ReadFaultRate: 0.05, SpikeRate: 0.05, SpikePenalty: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	a, b := mk(42), mk(42)
	const n = 4096
	// Query b in reverse order: call order must not matter.
	got := make([]pcie.RequestOutcome, n)
	for i := n - 1; i >= 0; i-- {
		got[i] = b.RequestFault(1, i%7, uint64(i), 32)
	}
	diff := 0
	var fails, spikes int
	for i := 0; i < n; i++ {
		out := a.RequestFault(1, i%7, uint64(i), 32)
		if out != got[i] {
			diff++
		}
		switch out {
		case pcie.ReqFail:
			fails++
		case pcie.ReqSpike:
			spikes++
		}
	}
	if diff != 0 {
		t.Errorf("%d/%d decisions differ between same-seed injectors", diff, n)
	}
	if fails == 0 || spikes == 0 {
		t.Fatalf("5%% rates over %d requests produced fails=%d spikes=%d; hash is not firing", n, fails, spikes)
	}
	// The injector's own tally matches the decisions it returned.
	counts := a.Counts()
	if counts.ReadFaults != uint64(fails) || counts.Spikes != uint64(spikes) {
		t.Errorf("Counts() = %+v, want ReadFaults=%d Spikes=%d", counts, fails, spikes)
	}

	// A different seed must not reproduce the same decision sequence.
	c := mk(43)
	diff = 0
	for i := 0; i < n; i++ {
		if c.RequestFault(1, i%7, uint64(i), 32) != got[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seed 43 reproduced seed 42's decisions exactly")
	}
}

// TestEpochDecorrelation: the same request coordinates under a different
// run epoch draw fresh outcomes — the property that makes retries
// meaningful instead of deterministically re-failing forever.
func TestEpochDecorrelation(t *testing.T) {
	inj, err := New(Config{Seed: 9, ReadFaultRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	diff := 0
	for i := 0; i < n; i++ {
		if inj.RequestFault(1, 0, uint64(i), 32) != inj.RequestFault(2, 0, uint64(i), 32) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("epoch change did not alter any of the decisions")
	}
}

// TestRateAccuracy: the observed fault fraction tracks the configured rate
// (the threshold math maps probabilities onto the hash range correctly).
func TestRateAccuracy(t *testing.T) {
	const rate, n = 0.01, 200000
	inj, err := New(Config{Seed: 5, ReadFaultRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	fails := 0
	for i := 0; i < n; i++ {
		if inj.RequestFault(uint64(i/1000), i%64, uint64(i), 32) == pcie.ReqFail {
			fails++
		}
	}
	got := float64(fails) / n
	if got < rate/2 || got > rate*2 {
		t.Errorf("observed fault rate %.5f, configured %.5f", got, rate)
	}
}

// TestAllocFault: injected allocation failures match ErrTransient, count
// themselves, and successive draws see fresh outcomes (so retries can
// succeed).
func TestAllocFault(t *testing.T) {
	inj, err := New(Config{Seed: 11, AllocFaultRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	failed, succeeded := 0, 0
	for i := 0; i < 256; i++ {
		if err := inj.AllocFault(4096); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("alloc fault %v does not match ErrTransient", err)
			}
			var ae *InjectedAllocError
			if !errors.As(err, &ae) || ae.Size != 4096 {
				t.Fatalf("alloc fault %v is not an *InjectedAllocError carrying the size", err)
			}
			failed++
		} else {
			succeeded++
		}
	}
	if failed == 0 || succeeded == 0 {
		t.Fatalf("50%% alloc faults over 256 draws: failed=%d succeeded=%d", failed, succeeded)
	}
	if got := inj.Counts().AllocFaults; got != uint64(failed) {
		t.Errorf("Counts().AllocFaults = %d, want %d", got, failed)
	}
}

// TestWireScale: the degraded-gen1 profile derates the wire and the link
// model stretches request occupancy by exactly that factor; a nil hook
// leaves the formula untouched.
func TestWireScale(t *testing.T) {
	inj, err := profile(ProfileDegradedGen1, 1)
	if err != nil {
		t.Fatal(err)
	}
	healthy := pcie.Gen3x16()
	degraded := pcie.Gen3x16()
	degraded.Faults = inj
	hw, dw := healthy.WireSeconds(128), degraded.WireSeconds(128)
	if want := hw * inj.WireScale(); dw != want {
		t.Errorf("degraded WireSeconds = %v, want %v (healthy %v x scale %v)", dw, want, hw, inj.WireScale())
	}
	if degraded.BulkSeconds(1<<20) <= healthy.BulkSeconds(1<<20) {
		t.Error("bulk transfers did not slow down on the degraded link")
	}
}

// profile builds an injector for a named profile, as the serving command
// does: ProfileConfig, then New.
func profile(name string, seed uint64) (Injector, error) {
	cfg, err := ProfileConfig(name, seed)
	if err != nil {
		return nil, err
	}
	return New(cfg)
}
