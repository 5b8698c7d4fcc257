package emogi

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/telemetry"
)

// TestServingHeapIsFlat is the bounded-state soak: a System with a metrics
// collector attached, as emogi-serve runs it, serves 10k queries. After
// 1k warm-up calls the live heap may grow by less than 1 MiB over the next
// 9k: the device, its traffic monitor and the collector keep O(1) state
// per run, not a log that grows with every launch.
func TestServingHeapIsFlat(t *testing.T) {
	const (
		warmup = 1000
		soak   = 9000
		budget = 1 << 20
	)
	g, err := BuildDataset("GK", 0.002, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := V100PCIe3(0.002)
	cfg.Telemetry = telemetry.NewCollector(telemetry.NewRegistry(), nil)
	sys := NewSystem(cfg)
	dg, err := sys.Load(g)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 16, 7)
	algos := []string{"bfs", "sssp"}
	do := func(i int) {
		req := Request{Graph: dg, Algo: algos[i%len(algos)], Src: srcs[i%len(srcs)], Variant: MergedAligned}
		if _, err := sys.Do(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	for i := 0; i < warmup; i++ {
		do(i)
	}
	before := heap()
	for i := warmup; i < warmup+soak; i++ {
		do(i)
	}
	after := heap()
	runtime.KeepAlive(sys) // the device's state is what is being measured
	t.Logf("heap %d -> %d", before, after)
	if after > before && after-before >= budget {
		t.Errorf("live heap grew %d bytes over %d served queries (%d -> %d), want < %d",
			after-before, soak, before, after, budget)
	}
}
