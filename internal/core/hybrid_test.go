package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
)

func TestHybridBFSCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		for _, share := range []float64{0, 0.2, 0.5, 1.0} {
			dev := testDevice()
			h, err := NewHybridSystem(dev, g, 8, DefaultHybridConfig(share))
			if err != nil {
				t.Fatalf("%s share=%v: %v", g.Name, share, err)
			}
			src := graph.PickSources(g, 1, 47)[0]
			res, err := h.BFS(context.Background(), src)
			if err != nil {
				t.Fatalf("%s share=%v: %v", g.Name, share, err)
			}
			if err := ValidateBFS(g, src, res.Values); err != nil {
				t.Errorf("%s share=%v: %v", g.Name, share, err)
			}
			h.Free()
		}
	}
}

func TestHybridValidation(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	if _, err := NewHybridSystem(dev, g, 8, DefaultHybridConfig(-0.1)); err == nil {
		t.Errorf("negative share accepted")
	}
	if _, err := NewHybridSystem(dev, g, 8, DefaultHybridConfig(1.5)); err == nil {
		t.Errorf("share above 1 accepted")
	}
	cfg := DefaultHybridConfig(0.5)
	cfg.CPUScanBytesPerSec = 0
	if _, err := NewHybridSystem(dev, g, 8, cfg); err == nil {
		t.Errorf("zero CPU rate accepted")
	}
	h, err := NewHybridSystem(testDevice(), g, 8, DefaultHybridConfig(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.BFS(context.Background(), -1); err == nil {
		t.Errorf("bad source accepted")
	}
}

func TestHybridSplitTracksShare(t *testing.T) {
	g := graph.Urand("gu", 5000, 16, 1)
	var prev int
	for _, share := range []float64{0, 0.25, 0.5, 1.0} {
		h, err := NewHybridSystem(testDevice(), g, 8, DefaultHybridConfig(share))
		if err != nil {
			t.Fatal(err)
		}
		if h.Split() < prev {
			t.Errorf("split not monotone in share")
		}
		prev = h.Split()
	}
	if prev != g.NumVertices() {
		t.Errorf("share 1.0 should hand the whole graph to the CPU")
	}
	h0, _ := NewHybridSystem(testDevice(), g, 8, DefaultHybridConfig(0))
	if h0.Split() != 0 {
		t.Errorf("share 0 should hand nothing to the CPU")
	}
}

// TestHybridOffloadHelpsUpToAPoint: a small CPU share should beat the
// GPU-only configuration (the CPU's memory-local work is free bandwidth),
// but an overgrown share makes the slow CPU the bottleneck.
func TestHybridOffloadHelpsUpToAPoint(t *testing.T) {
	g := graph.Urand("gu", 30000, 32, 3)
	src := graph.PickSources(g, 1, 1)[0]
	times := map[float64]time.Duration{}
	for _, share := range []float64{0, 0.15, 0.9} {
		h, err := NewHybridSystem(testDevice(), g, 8, DefaultHybridConfig(share))
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.BFS(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateBFS(g, src, res.Values); err != nil {
			t.Fatal(err)
		}
		times[share] = res.Elapsed
		h.Free()
	}
	if times[0.15] >= times[0] {
		t.Errorf("a modest CPU share should help: %v vs %v", times[0.15], times[0])
	}
	if times[0.9] <= times[0.15] {
		t.Errorf("an overgrown CPU share should hurt: %v vs %v", times[0.9], times[0.15])
	}
}
