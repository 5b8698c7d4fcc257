package core

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// threeTierDevice builds a device whose host DRAM is capped small enough
// that sizeable edge lists oversubscribe it, backed by a CXL tier that can
// absorb the spill.
func threeTierDevice(hostBytes, cxlBytes int64, gpuDriven bool) *gpu.Device {
	two := memsys.TwoTier(0, hostBytes, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16())
	return gpu.NewDevice(gpu.Config{
		Name:            "test-cxl",
		Tiers:           memsys.ThreeTierCXL(two, cxlBytes),
		GPUDrivenPaging: gpuDriven,
	})
}

// TestOversubscriptionSpillsToCXL loads a graph whose edge list exceeds
// host-DRAM capacity onto a three-tier device: the tail must spill to the
// CXL tier, traversals must stay exact, and the CXL counters must show the
// external tier actually served traffic.
func TestOversubscriptionSpillsToCXL(t *testing.T) {
	t.Parallel()
	// Placement is per 64KB segment, so the edge lists must span many
	// segments for a meaningful DRAM/CXL split — bigger than testGraphs().
	graphs := []*graph.CSR{
		graph.RMAT("gk-big", 8192, 24, 0.57, 0.19, 0.19, true, 1),
		graph.Urand("gu-big", 8000, 30, 2),
	}
	for _, g := range graphs {
		edgeBytes := g.NumEdges() * 8
		hostCap := edgeBytes/2 + 4096 // roughly half the edge list fits
		dev := threeTierDevice(hostCap, 4*edgeBytes, false)
		dg, err := UploadPolicyPlaced(dev, g, StaticPolicyFor(ZeroCopy), 8, PlaceAuto)
		if err != nil {
			t.Fatalf("%s: upload onto oversubscribed host: %v", g.Name, err)
		}
		spilled := homedBytes(dg.Edges, memsys.SpaceCXL)
		if spilled == 0 {
			t.Fatalf("%s: edge list (%d bytes) vs host cap %d: expected CXL spill, got none",
				g.Name, edgeBytes, hostCap)
		}
		if homedBytes(dg.Edges, memsys.SpaceHostPinned) == 0 {
			t.Errorf("%s: PlaceAuto should fill DRAM before spilling", g.Name)
		}
		src := graph.PickSources(g, 1, 43)[0]
		res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
		if err != nil {
			t.Fatalf("%s: BFS over spilled edges: %v", g.Name, err)
		}
		if err := res.Validate(g); err != nil {
			t.Errorf("%s: spilled traversal wrong: %v", g.Name, err)
		}
		if res.Stats.CXLRequests == 0 || res.Stats.CXLPayloadBytes == 0 {
			t.Errorf("%s: traversal over CXL-homed segments recorded no CXL traffic (reqs=%d payload=%d)",
				g.Name, res.Stats.CXLRequests, res.Stats.CXLPayloadBytes)
		}
		dg.Free(dev)
		if got := dev.Arena().CXLUsed(); got != 0 {
			t.Errorf("%s: CXL bytes leaked after Free: %d", g.Name, got)
		}
	}
}

// TestPlacementForcedCXL pins the whole edge list on the CXL tier and checks
// the placement is total, exact, and strictly slower than host DRAM (the
// external tier's link is narrower and its latency higher).
func TestPlacementForcedCXL(t *testing.T) {
	t.Parallel()
	g := testGraphs()[0]
	src := graph.PickSources(g, 1, 43)[0]

	devD := threeTierDevice(0, 0, false) // uncapped
	dgD, err := UploadPolicyPlaced(devD, g, StaticPolicyFor(ZeroCopy), 8, PlaceDRAM)
	if err != nil {
		t.Fatal(err)
	}
	resD, err := BFS(context.Background(), devD, dgD, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}

	devC := threeTierDevice(0, 0, false)
	dgC, err := UploadPolicyPlaced(devC, g, StaticPolicyFor(ZeroCopy), 8, PlaceCXL)
	if err != nil {
		t.Fatal(err)
	}
	if got := homedBytes(dgC.Edges, memsys.SpaceHostPinned); got != 0 {
		t.Fatalf("PlaceCXL left %d bytes in DRAM", got)
	}
	resC, err := BFS(context.Background(), devC, dgC, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if err := resC.Validate(g); err != nil {
		t.Fatalf("CXL-placed traversal wrong: %v", err)
	}
	if resC.Stats.PCIeRequests != 0 {
		t.Errorf("fully CXL-placed run still issued %d PCIe zero-copy requests", resC.Stats.PCIeRequests)
	}
	if resC.Elapsed <= resD.Elapsed {
		t.Errorf("CXL run (%v) should be slower than DRAM run (%v)", resC.Elapsed, resD.Elapsed)
	}
	for i := range resC.Values {
		if resC.Values[i] != resD.Values[i] {
			t.Fatalf("values diverge at %d: CXL %d vs DRAM %d", i, resC.Values[i], resD.Values[i])
		}
	}
}

// TestApplyPlacementMoves re-homes a loaded graph between DRAM and CXL and
// checks accounting and traversal exactness across the moves.
func TestApplyPlacementMoves(t *testing.T) {
	t.Parallel()
	g := testGraphs()[1]
	src := graph.PickSources(g, 1, 43)[0]
	dev := threeTierDevice(0, 0, false)
	dg, err := UploadPolicyPlaced(dev, g, StaticPolicyFor(ZeroCopy), 8, PlaceAuto)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyPlacement(dev, dg, PlaceCXL); err != nil {
		t.Fatalf("ApplyPlacement(cxl): %v", err)
	}
	if got := homedBytes(dg.Edges, memsys.SpaceHostPinned); got != 0 {
		t.Fatalf("after PlaceCXL, %d edge bytes still DRAM-homed", got)
	}
	res, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(g); err != nil {
		t.Fatalf("post-move traversal wrong: %v", err)
	}
	if err := ApplyPlacement(dev, dg, PlaceDRAM); err != nil {
		t.Fatalf("ApplyPlacement(dram): %v", err)
	}
	if got := homedBytes(dg.Edges, memsys.SpaceCXL); got != 0 {
		t.Fatalf("after PlaceDRAM, %d edge bytes still CXL-homed", got)
	}
	if got := dev.Arena().CXLUsed(); got != 0 {
		t.Fatalf("CXL accounting nonzero after move back: %d", got)
	}
	res2, err := BFS(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Validate(g); err != nil {
		t.Fatalf("round-trip traversal wrong: %v", err)
	}

	// On a two-tier device PlaceCXL must fail loudly, PlaceDRAM is a no-op.
	dev2 := testDevice()
	dg2, err := Upload(dev2, g, ZeroCopy, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyPlacement(dev2, dg2, PlaceCXL); err == nil {
		t.Error("ApplyPlacement(cxl) on a two-tier device should fail")
	}
	if err := ApplyPlacement(dev2, dg2, PlaceDRAM); err != nil {
		t.Errorf("ApplyPlacement(dram) on a two-tier device should be a no-op, got %v", err)
	}
}

// pagingDevice builds a small-HBM device (so UVM must migrate and evict)
// with the given worker count and paging model.
func pagingDevice(workers int, gpuDriven bool) *gpu.Device {
	return gpu.NewDevice(gpu.Config{
		Name:            "test-paging",
		Tiers:           memsys.TwoTier(96<<10, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		Workers:         workers,
		GPUDrivenPaging: gpuDriven,
	})
}

// TestPagingDeterminism checks both paging models against the engine's
// determinism contract — serial, parallel, and batched execution produce
// bit-for-bit identical migrations, counters, and elapsed time — and that
// the models agree on everything but time.
func TestPagingDeterminism(t *testing.T) {
	t.Parallel()
	g := testGraphs()[0]
	srcs := graph.PickSources(g, 2, 43)

	type outcome struct {
		res *Result
		err error
	}
	run := func(workers int, gpuDriven bool) outcome {
		dev := pagingDevice(workers, gpuDriven)
		dg, err := Upload(dev, g, UVM, 8)
		if err != nil {
			return outcome{err: err}
		}
		res, err := BFS(context.Background(), dev, dg, srcs[0], Merged)
		return outcome{res: res, err: err}
	}
	for _, gpuDriven := range []bool{false, true} {
		serial := run(1, gpuDriven)
		parallel := run(8, gpuDriven)
		if serial.err != nil || parallel.err != nil {
			t.Fatalf("gpuDriven=%v: serial err %v, parallel err %v", gpuDriven, serial.err, parallel.err)
		}
		if serial.res.Elapsed != parallel.res.Elapsed ||
			serial.res.Stats.UVMMigrations != parallel.res.Stats.UVMMigrations ||
			serial.res.Stats.PCIePayloadBytes != parallel.res.Stats.PCIePayloadBytes {
			t.Errorf("gpuDriven=%v: serial vs parallel drift: %v/%d/%d vs %v/%d/%d", gpuDriven,
				serial.res.Elapsed, serial.res.Stats.UVMMigrations, serial.res.Stats.PCIePayloadBytes,
				parallel.res.Elapsed, parallel.res.Stats.UVMMigrations, parallel.res.Stats.PCIePayloadBytes)
		}
		// Batched lanes must reproduce the individual runs' values exactly.
		dev := pagingDevice(0, gpuDriven)
		dg, err := Upload(dev, g, UVM, 8)
		if err != nil {
			t.Fatal(err)
		}
		specs := []BatchSpec{{Src: srcs[0]}, {Src: srcs[1]}}
		out, err := RunBatchAlgo(context.Background(), dev, dg, "bfs", specs, Merged)
		if err != nil {
			t.Fatalf("gpuDriven=%v: batch: %v", gpuDriven, err)
		}
		for i, item := range out.Results {
			if item.Err != nil {
				t.Fatalf("gpuDriven=%v lane %d: %v", gpuDriven, i, item.Err)
			}
			if err := item.Res.Validate(g); err != nil {
				t.Errorf("gpuDriven=%v lane %d: %v", gpuDriven, i, err)
			}
		}
		lane0 := out.Results[0].Res
		for i := range lane0.Values {
			if lane0.Values[i] != serial.res.Values[i] {
				t.Fatalf("gpuDriven=%v: batched lane diverges from solo run at vertex %d", gpuDriven, i)
			}
		}
	}

	// The two models must agree on migrations and traffic: GPU-driven paging
	// changes only the time accounting.
	cpu := run(1, false)
	gpuRes := run(1, true)
	if cpu.res.Stats.UVMMigrations != gpuRes.res.Stats.UVMMigrations {
		t.Errorf("paging models disagree on migrations: cpu %d vs gpu %d",
			cpu.res.Stats.UVMMigrations, gpuRes.res.Stats.UVMMigrations)
	}
	if cpu.res.Stats.PCIePayloadBytes != gpuRes.res.Stats.PCIePayloadBytes {
		t.Errorf("paging models disagree on wire payload: cpu %d vs gpu %d",
			cpu.res.Stats.PCIePayloadBytes, gpuRes.res.Stats.PCIePayloadBytes)
	}
	if gpuRes.res.Elapsed >= cpu.res.Elapsed {
		t.Errorf("GPU-driven paging should beat the serialized CPU fault handler on a migration-bound run: gpu %v vs cpu %v",
			gpuRes.res.Elapsed, cpu.res.Elapsed)
	}
}

// TestWeightedSpillHomes loads a weighted graph whose edge list alone
// oversubscribes host DRAM (promoted from the PR 9 review scratch test,
// which only checked that the upload did not error). The edge list must
// split across DRAM and CXL, and the weight list — planned after the edges
// have consumed DRAM — must land entirely on the CXL tier rather than OOM
// against a full DRAM. Traversal over the split layout must stay exact and
// actually exercise both links.
func TestWeightedSpillHomes(t *testing.T) {
	t.Parallel()
	g := graph.RMAT("wspill", 8192, 24, 0.57, 0.19, 0.19, true, 1)
	g.InitWeights(7, 1, 64)
	edgeBytes := g.NumEdges() * 8
	hostCap := edgeBytes/2 + 4096 // roughly half the edge list fits
	dev := threeTierDevice(hostCap, 4*edgeBytes, false)
	dg, err := UploadPolicyPlaced(dev, g, StaticPolicyFor(ZeroCopy), 8, PlaceAuto)
	if err != nil {
		t.Fatalf("weighted spill upload failed: %v", err)
	}
	edgeDRAM := homedBytes(dg.Edges, memsys.SpaceHostPinned)
	edgeCXL := homedBytes(dg.Edges, memsys.SpaceCXL)
	if edgeDRAM == 0 || edgeCXL == 0 {
		t.Fatalf("edge list should split across DRAM and CXL, got DRAM=%d CXL=%d", edgeDRAM, edgeCXL)
	}
	if edgeDRAM+edgeCXL != edgeBytes {
		t.Errorf("edge homes do not cover the list: DRAM %d + CXL %d != %d", edgeDRAM, edgeCXL, edgeBytes)
	}
	wBytes := g.NumEdges() * 4
	wDRAM := homedBytes(dg.Weights, memsys.SpaceHostPinned)
	wCXL := homedBytes(dg.Weights, memsys.SpaceCXL)
	if wDRAM+wCXL != wBytes {
		t.Errorf("weight homes do not cover the list: DRAM %d + CXL %d != %d", wDRAM, wCXL, wBytes)
	}
	// DRAM was filled by the edge prefix; the capacity-aware weight plan
	// must have pushed every weight segment that no longer fits out to CXL.
	if free := dev.Arena().HostFree(); free < 0 || wDRAM > edgeBytes/2 {
		t.Errorf("weight list overcommitted DRAM: %d weight bytes in DRAM, %d free", wDRAM, free)
	}
	src := graph.PickSources(g, 1, 43)[0]
	res, err := SSSP(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatalf("SSSP over split weighted layout: %v", err)
	}
	if err := res.Validate(g); err != nil {
		t.Errorf("split-layout SSSP wrong: %v", err)
	}
	if res.Stats.CXLRequests == 0 {
		t.Error("traversal over CXL-homed segments recorded no CXL requests")
	}
	dg.Free(dev)
	if got := dev.Arena().CXLUsed(); got != 0 {
		t.Errorf("CXL bytes leaked after Free: %d", got)
	}
}

// TestWeightsJustOverflowHomes is the boundary case: the edge list fits host
// DRAM exactly, so only the weight list overflows (promoted from the PR 9
// review scratch test). The edges must stay entirely DRAM-homed and the
// weights must spill their tail to CXL — the upload used to OOM here because
// the weight list inherited the edges' "everything fits" plan.
func TestWeightsJustOverflowHomes(t *testing.T) {
	t.Parallel()
	g := graph.RMAT("woverflow", 8192, 24, 0.57, 0.19, 0.19, true, 1)
	g.InitWeights(7, 1, 64)
	edgeBytes := g.NumEdges() * 8
	hostCap := edgeBytes + 4096 // edges fit, edges+weights do not
	dev := threeTierDevice(hostCap, 4*edgeBytes, false)
	dg, err := UploadPolicyPlaced(dev, g, StaticPolicyFor(ZeroCopy), 8, PlaceAuto)
	if err != nil {
		t.Fatalf("weights-overflow upload failed: %v", err)
	}
	if got := homedBytes(dg.Edges, memsys.SpaceCXL); got != 0 {
		t.Errorf("edge list fits DRAM but %d bytes landed on CXL", got)
	}
	if got := homedBytes(dg.Edges, memsys.SpaceHostPinned); got != edgeBytes {
		t.Errorf("edge list should be fully DRAM-homed: %d of %d bytes", got, edgeBytes)
	}
	wBytes := g.NumEdges() * 4
	wDRAM := homedBytes(dg.Weights, memsys.SpaceHostPinned)
	wCXL := homedBytes(dg.Weights, memsys.SpaceCXL)
	if wCXL == 0 {
		t.Fatalf("weight list should spill to CXL (DRAM=%d CXL=%d)", wDRAM, wCXL)
	}
	if wDRAM+wCXL != wBytes {
		t.Errorf("weight homes do not cover the list: DRAM %d + CXL %d != %d", wDRAM, wCXL, wBytes)
	}
	src := graph.PickSources(g, 1, 43)[0]
	res, err := SSSP(context.Background(), dev, dg, src, MergedAligned)
	if err != nil {
		t.Fatalf("SSSP over spilled weights: %v", err)
	}
	if err := res.Validate(g); err != nil {
		t.Errorf("spilled-weights SSSP wrong: %v", err)
	}
	if res.Stats.CXLRequests == 0 {
		t.Error("traversal over CXL-homed weights recorded no CXL requests")
	}
	dg.Free(dev)
	if got := dev.Arena().CXLUsed(); got != 0 {
		t.Errorf("CXL bytes leaked after Free: %d", got)
	}
}

// homedBytes returns how many of b's bytes are homed in space s.
func homedBytes(b *memsys.Buffer, s memsys.Space) int64 {
	var n int64
	for i := 0; i < b.Segments(); i++ {
		if b.SegmentHome(i) == s {
			n += min(memsys.SegmentBytes, b.Size()-int64(i)*memsys.SegmentBytes)
		}
	}
	return n
}
