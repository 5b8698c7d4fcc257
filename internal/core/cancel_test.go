package core

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// cancelAfterRound is a telemetry sink that fires a context cancel once
// round N completes. Cancellation through the simulated timeline is
// deterministic: the engine checks the context at the top of every round,
// so a cancel raised in RoundDone(N) always stops the run with exactly
// N+1 completed rounds, independent of host scheduling.
type cancelAfterRound struct {
	mu     sync.Mutex
	after  int
	cancel context.CancelFunc
	rounds int
}

func (c *cancelAfterRound) RunBegin(dev *gpu.Device, labels gpu.RunLabels) {}
func (c *cancelAfterRound) RunEnd(dev *gpu.Device)                         {}
func (c *cancelAfterRound) KernelDone(dev *gpu.Device, ks *gpu.KernelStats, workers, maxWorkers int, start, end time.Duration) {
}
func (c *cancelAfterRound) CopyDone(dev *gpu.Device, toDevice bool, bytes int64, start, end time.Duration) {
}

func (c *cancelAfterRound) RoundDone(dev *gpu.Device, name string, round int, start, end time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rounds++
	if round == c.after {
		c.cancel()
	}
}

func cancelTestGraph(t *testing.T) (*graph.CSR, int) {
	t.Helper()
	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.02, 42)
	return g, graph.PickSources(g, 1, 71)[0]
}

// TestCancelBeforeFirstRound: a context canceled before the run starts
// executes nothing — zero rounds, zero kernels — and reports the typed
// error through both the package sentinel and the context cause.
func TestCancelBeforeFirstRound(t *testing.T) {
	g, src := cancelTestGraph(t)
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Free(dev)

	before := dev.Total()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BFS(ctx, dev, dg, src, MergedAligned)
	if res != nil {
		t.Fatalf("canceled run returned a result: %+v", res)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if ce.Rounds != 0 {
		t.Errorf("Rounds = %d, want 0 (pre-canceled context must run nothing)", ce.Rounds)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false")
	}
	if got := dev.Total(); got.Warps != before.Warps {
		t.Errorf("pre-canceled run launched %d warp(s)", got.Warps-before.Warps)
	}
}

// TestCancelMidRunThenRerun is the cancellation contract end to end: a
// run canceled after round N stops at the next round boundary with the
// typed error, leaks no device memory, and leaves the device graph in a
// state where an immediate rerun completes and reproduces the pinned
// golden-engine numbers bit for bit.
func TestCancelMidRunThenRerun(t *testing.T) {
	g, src := cancelTestGraph(t)
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Free(dev)
	usedBefore := dev.Arena().GPUUsed()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelAfterRound{after: 1, cancel: cancel}
	dev.SetTelemetry(sink)
	res, err := BFS(ctx, dev, dg, src, MergedAligned)
	dev.SetTelemetry(nil)
	if res != nil {
		t.Fatalf("canceled run returned a result")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if ce.App != "BFS" {
		t.Errorf("CanceledError.App = %q, want BFS", ce.App)
	}
	// The cancel fired inside RoundDone(1), so rounds 0 and 1 completed
	// and the level-2 boundary check stopped the run: exactly the "next
	// round boundary" the contract promises.
	if ce.Rounds != sink.rounds {
		t.Errorf("Rounds = %d, want %d (the rounds the sink observed)", ce.Rounds, sink.rounds)
	}
	if ce.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2 (cancel after round 1)", ce.Rounds)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("canceled error must match ErrCanceled and context.Canceled, got %v", err)
	}

	// No leak: every frontier/value buffer the aborted run allocated was
	// returned to the arena, leaving only the uploaded graph.
	if used := dev.Arena().GPUUsed(); used != usedBefore {
		t.Errorf("GPU arena after cancel = %d bytes, want %d (canceled run leaked buffers)",
			used, usedBefore)
	}

	// Rerun on the same device graph: the canceled attempt must be
	// invisible. The pinned golden record is the arbiter — every counter
	// of the rerun has to match results/golden-engine.json exactly.
	res2, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatalf("rerun after cancel: %v", err)
	}
	if err := res2.Validate(g); err != nil {
		t.Fatalf("rerun after cancel produced wrong output: %v", err)
	}
	want := goldenRecordByName(t, "GK/bfs")
	got := recordOf("GK/bfs", res2)
	if got != want {
		t.Errorf("rerun after cancel diverged from golden record:\n got %+v\nwant %+v", got, want)
	}
}

// goldenRecordByName loads one pinned record from results/golden-engine.json.
func goldenRecordByName(t *testing.T, name string) goldenRecord {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var recs []goldenRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	for _, r := range recs {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("golden record %q not found", name)
	return goldenRecord{}
}

// TestCancelDeadline: context.DeadlineExceeded flows through the same
// typed error.
func TestCancelDeadline(t *testing.T) {
	g, src := cancelTestGraph(t)
	dev := testDevice()
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Free(dev)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = SSSP(ctx, dev, dg, src, MergedAligned)
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for deadline, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false, got %v", err)
	}
}

// TestUnknownAlgorithmListsNames: the registry error names every valid
// algorithm so callers can self-correct.
func TestUnknownAlgorithmListsNames(t *testing.T) {
	dev := testDevice()
	g, src := cancelTestGraph(t)
	dg, err := Upload(dev, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer dg.Free(dev)

	_, err = RunAlgo(context.Background(), dev, dg, "dfs", src, MergedAligned)
	var ue *UnknownAlgorithmError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnknownAlgorithmError", err)
	}
	if ue.Name != "dfs" {
		t.Errorf("Name = %q, want dfs", ue.Name)
	}
	for _, name := range AlgorithmNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered algorithm %q", err.Error(), name)
		}
	}
}
