package core

import (
	"context"
	"testing"

	"repro/internal/graph"
)

// TestRunStatsHistoryIndependent: the paper reports the mean over many
// sources run on one device (§5.2), so a run's statistics must not depend
// on the runs before it. One bfs on a fresh device is the reference; the
// same bfs after 1, 2, 3, 5 and 8 earlier sssp runs on one device must
// report bit-for-bit the same Result.Stats — the five roofline float
// seconds and both MaxWarp critical-path maxima included — and the same
// Elapsed.
func TestRunStatsHistoryIndependent(t *testing.T) {
	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.05, 42)
	srcs := graph.PickSources(g, 9, 71)
	ctx := context.Background()
	load := func() (func(int) *Result, func(int)) {
		dev := testDevice()
		dg, err := Upload(dev, g, ZeroCopy, 8)
		if err != nil {
			t.Fatal(err)
		}
		bfs := func(src int) *Result {
			res, err := BFS(ctx, dev, dg, src, MergedAligned)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sssp := func(src int) {
			if _, err := SSSP(ctx, dev, dg, src, MergedAligned); err != nil {
				t.Fatal(err)
			}
		}
		return bfs, sssp
	}

	bfs, _ := load()
	want := bfs(srcs[0])
	if want.Stats.WireSeconds == 0 || want.Stats.MaxWarpHostReqs == 0 {
		t.Fatalf("reference run did no zero-copy work: %+v", want.Stats)
	}
	for _, earlier := range []int{1, 2, 3, 5, 8} {
		bfs, sssp := load()
		for i := 0; i < earlier; i++ {
			sssp(srcs[1+i])
		}
		got := bfs(srcs[0])
		if got.Stats != want.Stats || got.Elapsed != want.Elapsed {
			t.Errorf("bfs after %d sssp run(s) differs from a fresh device:\n got %v %+v\nwant %v %+v",
				earlier, got.Elapsed, got.Stats, want.Elapsed, want.Stats)
		}
	}
}
