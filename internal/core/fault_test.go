package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// faultDevice returns a test device whose PCIe link carries the given
// fault injector. Workers selects the launch engine parallelism (0 =
// GOMAXPROCS, 1 = serial).
func faultDevice(inj fault.Injector, workers int) *gpu.Device {
	link := pcie.Gen3x16()
	link.Faults = inj
	return gpu.NewDevice(gpu.Config{
		Name:    "test-v100-faulty",
		Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), link),
		Workers: workers,
	})
}

func readFaultInjector(t *testing.T, seed uint64, rate float64) fault.Injector {
	t.Helper()
	inj, err := fault.New(fault.Config{Seed: seed, ReadFaultRate: rate})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestTransientFaultSurfacesTyped: a run that absorbs injected read
// faults aborts at the next round boundary with a *TransientError that
// matches fault.ErrTransient, reports the injector's own fault tally,
// and frees every per-run buffer.
func TestTransientFaultSurfacesTyped(t *testing.T) {
	g, src := cancelTestGraph(t)
	inj := readFaultInjector(t, 21, 0.05) // ~300 faults over GK/bfs's 6017 requests
	dev := faultDevice(inj, 0)
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Free(dev)
	usedBefore := dev.Arena().GPUUsed()

	res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if res != nil {
		t.Fatalf("faulted run returned a result: %+v", res)
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TransientError", err)
	}
	if !errors.Is(err, fault.ErrTransient) {
		t.Errorf("errors.Is(err, fault.ErrTransient) = false")
	}
	if errors.Is(err, ErrCanceled) {
		t.Errorf("transient error must not match ErrCanceled")
	}
	if te.App != "BFS" {
		t.Errorf("TransientError.App = %q, want BFS", te.App)
	}
	if te.Rounds < 1 {
		t.Errorf("TransientError.Rounds = %d, want >= 1 (the faulted round completed)", te.Rounds)
	}
	if te.Faults == 0 {
		t.Error("TransientError.Faults = 0 on an aborted run")
	}
	// The error's tally is the injector's tally: the engine counted every
	// ReqFail the hook returned, nothing more.
	if got := inj.Counts().ReadFaults; te.Faults != got {
		t.Errorf("TransientError.Faults = %d, injector counted %d", te.Faults, got)
	}

	// No leak: the abort path returned every frontier/value buffer.
	if used := dev.Arena().GPUUsed(); used != usedBefore {
		t.Errorf("GPU arena after transient abort = %d bytes, want %d", used, usedBefore)
	}
}

// TestRetryUntilCleanMatchesGolden is the retry-equivalence contract:
// under a read-fault-only injector (no latency spikes, no wire derating)
// a retried run that draws a clean epoch is bit-for-bit identical —
// values, counters, and modeled time — to the same run on a fault-free
// device. The pinned golden-engine record is the arbiter.
func TestRetryUntilCleanMatchesGolden(t *testing.T) {
	g, src := cancelTestGraph(t)
	// ~3 expected faults per epoch: most attempts fault, a clean epoch
	// arrives within a few dozen retries. Deterministic for this seed.
	inj := readFaultInjector(t, 17, 0.0005)
	dev := faultDevice(inj, 0)
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Free(dev)
	usedBefore := dev.Arena().GPUUsed()

	var res *Result
	faulted := 0
	for attempt := 0; attempt < 100; attempt++ {
		r, err := BFS(context.Background(), dev, dg, src, MergedAligned)
		if err == nil {
			res = r
			break
		}
		if !errors.Is(err, fault.ErrTransient) {
			t.Fatalf("attempt %d failed non-transiently: %v", attempt, err)
		}
		faulted++
	}
	if res == nil {
		t.Fatalf("no clean epoch within 100 attempts (all %d faulted); rate too high", faulted)
	}
	if faulted == 0 {
		t.Fatal("first epoch was already clean; raise the rate so the test exercises a retry")
	}
	t.Logf("clean epoch after %d faulted attempts", faulted)

	if err := res.Validate(g); err != nil {
		t.Fatalf("retried run produced wrong output: %v", err)
	}
	want := goldenRecordByName(t, "GK/bfs")
	got := recordOf("GK/bfs", res)
	if got != want {
		t.Errorf("clean retry diverged from golden record:\n got %+v\nwant %+v", got, want)
	}
	if res.Stats.FaultedReads != 0 || res.Stats.LatencySpikes != 0 {
		t.Errorf("clean epoch reported FaultedReads=%d LatencySpikes=%d, want 0/0",
			res.Stats.FaultedReads, res.Stats.LatencySpikes)
	}
	if used := dev.Arena().GPUUsed(); used != usedBefore {
		t.Errorf("GPU arena after retries = %d bytes, want %d (a faulted attempt leaked)",
			used, usedBefore)
	}
}

// TestFaultDeterminismAcrossWorkers: injected fault decisions are keyed
// on (epoch, warp, sequence) coordinates, not call order, so the serial
// engine and the parallel engine observe the identical fault set.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	g, src := cancelTestGraph(t)
	run := func(workers int) (uint64, error) {
		inj := readFaultInjector(t, 33, 0.01)
		dev := faultDevice(inj, workers)
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer dg.Free(dev)
		_, err = BFS(context.Background(), dev, dg, src, MergedAligned)
		return inj.Counts().ReadFaults, err
	}
	serialFaults, serialErr := run(1)
	parallelFaults, parallelErr := run(4)
	if serialFaults == 0 {
		t.Fatal("1% read faults over GK/bfs injected nothing; tune the rate")
	}
	if serialFaults != parallelFaults {
		t.Errorf("serial engine drew %d faults, 4-worker engine drew %d", serialFaults, parallelFaults)
	}
	var st, pt *TransientError
	if !errors.As(serialErr, &st) || !errors.As(parallelErr, &pt) {
		t.Fatalf("errors = (%v, %v), want *TransientError from both engines", serialErr, parallelErr)
	}
	if st.Faults != pt.Faults || st.Rounds != pt.Rounds {
		t.Errorf("serial abort (rounds=%d faults=%d) != parallel abort (rounds=%d faults=%d)",
			st.Rounds, st.Faults, pt.Rounds, pt.Faults)
	}
}

// TestAllocFaultSurfacesTransient: an injected allocation failure from
// the arena hook aborts the run with an error matching fault.ErrTransient
// and leaves the device graph re-traversable once the hook is lifted.
func TestAllocFaultSurfacesTransient(t *testing.T) {
	g, src := cancelTestGraph(t)
	inj, err := fault.New(fault.Config{Seed: 3, AllocFaultRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Free(dev)
	usedBefore := dev.Arena().GPUUsed()

	dev.Arena().SetAllocFaultHook(func(_ memsys.Space, size int64) error {
		return inj.AllocFault(size)
	})
	_, err = BFS(context.Background(), dev, dg, src, MergedAligned)
	dev.Arena().SetAllocFaultHook(nil)
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("alloc-faulted run: err = %v, want match for fault.ErrTransient", err)
	}
	if used := dev.Arena().GPUUsed(); used != usedBefore {
		t.Errorf("GPU arena after alloc fault = %d bytes, want %d", used, usedBefore)
	}

	// With the hook lifted the same device graph traverses to the golden
	// numbers.
	res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatalf("rerun after alloc fault: %v", err)
	}
	want := goldenRecordByName(t, "GK/bfs")
	if got := recordOf("GK/bfs", res); got != want {
		t.Errorf("rerun after alloc fault diverged from golden record:\n got %+v\nwant %+v", got, want)
	}
}
