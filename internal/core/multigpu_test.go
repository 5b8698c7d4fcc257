package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

func multiDevices(n int) []*gpu.Device {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		devs[i] = gpu.NewDevice(gpu.Config{
			Name:  "mgpu",
			Tiers: memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		})
	}
	return devs
}

func TestMultiGPUBFSCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		for _, n := range []int{1, 2, 4} {
			ms, err := NewMultiSystem(multiDevices(n), g, 8)
			if err != nil {
				t.Fatalf("%s x%d: %v", g.Name, n, err)
			}
			src := graph.PickSources(g, 1, 43)[0]
			res, err := ms.BFS(context.Background(), src)
			if err != nil {
				t.Fatalf("%s x%d: %v", g.Name, n, err)
			}
			if err := ValidateBFS(g, src, res.Values); err != nil {
				t.Errorf("%s x%d: %v", g.Name, n, err)
			}
			ms.Free()
		}
	}
}

func TestMultiSystemValidation(t *testing.T) {
	g := testGraphs()[0]
	if _, err := NewMultiSystem(nil, g, 8); err == nil {
		t.Errorf("empty device list accepted")
	}
	bad := &graph.CSR{Offsets: []int64{0, 3}, Dst: []uint32{0}}
	if _, err := NewMultiSystem(multiDevices(1), bad, 8); err == nil {
		t.Errorf("invalid graph accepted")
	}
	ms, err := NewMultiSystem(multiDevices(2), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.BFS(context.Background(), -1); err == nil {
		t.Errorf("bad source accepted")
	}
}

func TestMultiGPUPartitionBalanced(t *testing.T) {
	g := graph.RMAT("gk", 2048, 16, 0.57, 0.19, 0.19, true, 7)
	ms, err := NewMultiSystem(multiDevices(4), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	total := g.NumEdges()
	for i := 0; i < 4; i++ {
		lo, hi := ms.Partition(i)
		if lo > hi {
			t.Fatalf("partition %d inverted: [%d, %d)", i, lo, hi)
		}
		var arcs int64
		for v := lo; v < hi; v++ {
			arcs += g.Degree(v)
		}
		// Balanced within a generous factor (hub granularity limits).
		if arcs > total {
			t.Fatalf("partition %d has more arcs than the graph", i)
		}
		if i < 3 && arcs < total/16 {
			t.Errorf("partition %d suspiciously small: %d of %d arcs", i, arcs, total)
		}
	}
	lo0, _ := ms.Partition(0)
	_, hi3 := ms.Partition(3)
	if lo0 != 0 || hi3 != g.NumVertices() {
		t.Errorf("partitions do not cover the vertex set")
	}
}

// TestMultiGPUScalesTraversal: with independent links, two GPUs should
// traverse a large low-locality graph meaningfully faster than one, and
// four faster than two (sub-linear is fine: replica reduction costs grow
// with device count).
func TestMultiGPUScalesTraversal(t *testing.T) {
	g := graph.Urand("gu", 20000, 32, 3)
	src := graph.PickSources(g, 1, 1)[0]
	times := map[int]time.Duration{}
	for _, n := range []int{1, 2, 4} {
		ms, err := NewMultiSystem(multiDevices(n), g, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ms.BFS(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateBFS(g, src, res.Values); err != nil {
			t.Fatal(err)
		}
		times[n] = res.Elapsed
		ms.Free()
	}
	if times[2] >= times[1] {
		t.Errorf("2 GPUs (%v) not faster than 1 (%v)", times[2], times[1])
	}
	if times[4] >= times[2] {
		t.Errorf("4 GPUs (%v) not faster than 2 (%v)", times[4], times[2])
	}
	if sp := float64(times[1]) / float64(times[2]); sp < 1.2 {
		t.Errorf("2-GPU speedup only %.2fx", sp)
	}
}

// TestMultiGPUSingleMatchesPlainValues: a 1-device MultiSystem must give
// the same BFS levels as the plain path.
func TestMultiGPUSingleMatchesPlainValues(t *testing.T) {
	g := testGraphs()[1]
	src := graph.PickSources(g, 1, 5)[0]
	ms, err := NewMultiSystem(multiDevices(1), g, 8)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := ms.BFS(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	dev := testDevice()
	dg, _ := Upload(dev, g, ZeroCopy, 8)
	plain, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	for v := range plain.Values {
		if multi.Values[v] != plain.Values[v] {
			t.Fatalf("values diverge at vertex %d", v)
		}
	}
}

func TestMultiGPUSSSPCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		for _, n := range []int{1, 3} {
			ms, err := NewMultiSystem(multiDevices(n), g, 8)
			if err != nil {
				t.Fatal(err)
			}
			src := graph.PickSources(g, 1, 53)[0]
			res, err := ms.SSSP(context.Background(), src)
			if err != nil {
				t.Fatalf("%s x%d: %v", g.Name, n, err)
			}
			if err := ValidateSSSP(g, src, res.Values); err != nil {
				t.Errorf("%s x%d: %v", g.Name, n, err)
			}
			ms.Free()
		}
	}
}

func TestMultiGPUCCCorrectness(t *testing.T) {
	for _, g := range testGraphs() {
		if g.Directed {
			continue
		}
		ms, err := NewMultiSystem(multiDevices(2), g, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ms.CC(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if err := ValidateCC(g, res.Values); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if res.Source != -1 {
			t.Errorf("CC result should have no source")
		}
		ms.Free()
	}
}

func TestMultiGPUAppValidation(t *testing.T) {
	unweighted := graph.Urand("u", 200, 8, 1)
	ms, err := NewMultiSystem(multiDevices(2), unweighted, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.SSSP(context.Background(), 0); err == nil {
		t.Errorf("unweighted multi-GPU SSSP accepted")
	}
	directed := graph.Web("w", 300, 8, 2)
	ms2, err := NewMultiSystem(multiDevices(2), directed, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms2.CC(context.Background()); err == nil {
		t.Errorf("directed multi-GPU CC accepted")
	}
}
