package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func TestBFSWithWorkerCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		src := graph.PickSources(g, 1, 29)[0]
		for _, worker := range []int{4, 8, 16, 32} {
			for _, aligned := range []bool{false, true} {
				dev := testDevice()
				dg, err := Upload(dev, g, ZeroCopy, 8)
				if err != nil {
					t.Fatal(err)
				}
				res, err := BFSWithWorker(context.Background(), dev, dg, src, worker, aligned)
				if err != nil {
					t.Fatalf("%s worker=%d aligned=%v: %v", g.Name, worker, aligned, err)
				}
				if err := ValidateBFS(g, src, res.Values); err != nil {
					t.Errorf("%s worker=%d aligned=%v: %v", g.Name, worker, aligned, err)
				}
			}
		}
	}
}

func TestBFSWithWorkerBadArgs(t *testing.T) {
	g := testGraphs()[0]
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	if _, err := BFSWithWorker(context.Background(), dev, dg, 0, 5, true); err == nil {
		t.Errorf("worker size 5 accepted")
	}
	if _, err := BFSWithWorker(context.Background(), dev, dg, -1, 8, true); err == nil {
		t.Errorf("bad source accepted")
	}
}

// TestWorkerSizeRequestShrink encodes §4.3.1's argument: smaller workers
// produce smaller maximum requests, so on a long-list graph the request
// count rises as the worker shrinks.
func TestWorkerSizeRequestShrink(t *testing.T) {
	g := graph.Dense("ml", 200, 96, 48, 3)
	g.InitWeights(1, 8, 72)
	src := graph.PickSources(g, 1, 1)[0]
	var prevReqs uint64
	for _, worker := range []int{32, 16, 8, 4} {
		dev := testDevice()
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := BFSWithWorker(context.Background(), dev, dg, src, worker, true)
		if err != nil {
			t.Fatal(err)
		}
		if prevReqs != 0 && res.Stats.PCIeRequests < prevReqs {
			t.Errorf("worker %d: requests %d below larger worker's %d",
				worker, res.Stats.PCIeRequests, prevReqs)
		}
		prevReqs = res.Stats.PCIeRequests
	}
}

// TestWorker32MatchesMergedAligned: the 32-lane worker is the
// MergedAligned variant; its zero-copy traffic must agree closely.
func TestWorker32MatchesMergedAligned(t *testing.T) {
	g := testGraphs()[0]
	src := graph.PickSources(g, 1, 31)[0]

	devA := testDevice()
	dgA, _ := Upload(devA, g, ZeroCopy, 8)
	a, err := BFSWithWorker(context.Background(), devA, dgA, src, 32, true)
	if err != nil {
		t.Fatal(err)
	}
	devB := testDevice()
	dgB, _ := Upload(devB, g, ZeroCopy, 8)
	b, err := BFS(context.Background(), devB, dgB, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	// The edge-list gather traffic must be identical; label traffic
	// differs slightly (grouped label reads), so compare edge requests via
	// payload bytes within a small tolerance.
	ra := float64(a.Stats.PCIePayloadBytes)
	rb := float64(b.Stats.PCIePayloadBytes)
	if ra < 0.95*rb || ra > 1.05*rb {
		t.Errorf("worker-32 payload %v deviates from MergedAligned %v", ra, rb)
	}
}
