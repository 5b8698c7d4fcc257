package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
)

// kernelNames is a telemetry sink that records every launch's name.
type kernelNames []string

func (k *kernelNames) KernelDone(_ *gpu.Device, ks *gpu.KernelStats, _, _ int, _, _ time.Duration) {
	*k = append(*k, ks.Name)
}
func (*kernelNames) RunBegin(*gpu.Device, gpu.RunLabels)                              {}
func (*kernelNames) RunEnd(*gpu.Device)                                               {}
func (*kernelNames) CopyDone(*gpu.Device, bool, int64, time.Duration, time.Duration)  {}
func (*kernelNames) RoundDone(*gpu.Device, string, int, time.Duration, time.Duration) {}

func TestDirectionOptimizedCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		if g.Directed {
			continue
		}
		dev := testDevice()
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		src := graph.PickSources(g, 1, 67)[0]
		res, err := BFSDirectionOptimized(context.Background(), dev, dg, src, DefaultPushPullConfig())
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := ValidateBFS(g, src, res.Values); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestDirectionOptimizedRejectsDirected(t *testing.T) {
	g := graph.Web("w", 300, 8, 1)
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	if _, err := BFSDirectionOptimized(context.Background(), dev, dg, 0, DefaultPushPullConfig()); err == nil {
		t.Errorf("directed graph accepted")
	}
}

func TestDirectionOptimizedBadSource(t *testing.T) {
	g := testGraphs()[1]
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	if _, err := BFSDirectionOptimized(context.Background(), dev, dg, -1, DefaultPushPullConfig()); err == nil {
		t.Errorf("bad source accepted")
	}
}

// TestDirectionOptimizedUsesPull: on a uniform graph whose middle frontier
// is most of the vertex set, at least one level must run bottom-up, and the
// early exit must cut edge-list bytes versus pure push.
func TestDirectionOptimizedUsesPull(t *testing.T) {
	g := graph.Urand("gu", 8000, 24, 5)
	src := graph.PickSources(g, 1, 1)[0]

	devD := testDevice()
	var names kernelNames
	devD.SetTelemetry(&names)
	dgD, _ := Upload(devD, g, ZeroCopy, 8)
	do, err := BFSDirectionOptimized(context.Background(), devD, dgD, src, DefaultPushPullConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateBFS(g, src, do.Values); err != nil {
		t.Fatal(err)
	}
	pulls := 0
	for _, name := range names {
		if strings.Contains(name, "bfs/pull") {
			pulls++
		}
	}
	if pulls == 0 {
		t.Fatalf("no pull levels ran on a wide-frontier graph")
	}

	devP := testDevice()
	dgP, _ := Upload(devP, g, ZeroCopy, 8)
	push, err := BFS(context.Background(), devP, dgP, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if do.Stats.PCIePayloadBytes >= push.Stats.PCIePayloadBytes {
		t.Errorf("direction optimization should cut bytes: %d vs %d",
			do.Stats.PCIePayloadBytes, push.Stats.PCIePayloadBytes)
	}
}

// TestDirectionOptimizedAllPushMatchesPlain: with an unreachable pull
// threshold, the run degenerates to plain push BFS with identical traffic.
func TestDirectionOptimizedAllPushMatchesPlain(t *testing.T) {
	g := testGraphs()[1]
	src := graph.PickSources(g, 1, 3)[0]

	devA := testDevice()
	dgA, _ := Upload(devA, g, ZeroCopy, 8)
	a, err := BFSDirectionOptimized(context.Background(), devA, dgA, src, PushPullConfig{PullThreshold: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	devB := testDevice()
	dgB, _ := Upload(devB, g, ZeroCopy, 8)
	b, err := BFS(context.Background(), devB, dgB, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.PCIePayloadBytes != b.Stats.PCIePayloadBytes {
		t.Errorf("all-push direction-optimized differs from plain: %d vs %d",
			a.Stats.PCIePayloadBytes, b.Stats.PCIePayloadBytes)
	}
	for v := range a.Values {
		if a.Values[v] != b.Values[v] {
			t.Fatalf("values diverge at %d", v)
		}
	}
}
