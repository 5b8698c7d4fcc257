package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/memsys"
	"repro/internal/pcie"
)

// This file is the adaptive transport policy's determinism suite. The
// policy contract (TransportPolicy.Decide) demands a pure function of its
// arguments — no clocks, no randomness, no retained state — and the
// runtime contract demands that a routed run's decision sequence is a pure
// function of (graph, source, rounds): identical across worker counts,
// identical between the batched and single-source engines, and replayed
// identically by a fault-injected retry.

// adaptDevice mirrors the V100PCIe3 platform at dataset scale 0.05: a
// capped device whose GPU memory is smaller than the test graphs' edge
// lists, so the adaptive policy faces real staging and UVM budget
// pressure instead of trivially promoting everything.
func adaptDevice(workers int) *gpu.Device {
	s := 0.05 / 1000.0 // dataset scale x the repo's 1:1000 reduction
	return gpu.NewDevice(gpu.Config{
		Name:    "test-v100-capped",
		Workers: workers,
		Tiers: memsys.TwoTier(int64(float64(int64(16)<<30)*s), int64(float64(int64(256)<<30)*s),
			memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		L2Bytes:            int64(float64(int64(6)<<20) * s),
		MaxConcurrentLanes: int(float64(80*2048) * s),
	})
}

// decisionLog records the per-round transport decision stream in a
// canonical textual form so two runs can be compared for exact equality,
// and counts the launches that touched UVM pages on more than one worker.
type decisionLog struct {
	rounds      []string
	uvmParallel int
}

func (l *decisionLog) RunBegin(*gpu.Device, gpu.RunLabels) {}
func (l *decisionLog) RunEnd(*gpu.Device)                  {}
func (l *decisionLog) KernelDone(_ *gpu.Device, ks *gpu.KernelStats, workers, _ int, _, _ time.Duration) {
	if workers > 1 && ks.UVMMigrations+ks.UVMHits > 0 {
		l.uvmParallel++
	}
}
func (l *decisionLog) CopyDone(*gpu.Device, bool, int64, time.Duration, time.Duration)  {}
func (l *decisionLog) RoundDone(*gpu.Device, string, int, time.Duration, time.Duration) {}
func (l *decisionLog) TransportDecisions(_ *gpu.Device, round int, moves []gpu.TransportMove, _, _ time.Duration) {
	l.rounds = append(l.rounds, fmt.Sprintf("%d:%v", round, moves))
}

func sameDecisions(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// adaptiveRun executes one routed traversal with the adaptive policy on a
// fresh capped device, returning the result and the decision log.
func adaptiveRun(t *testing.T, g *graph.CSR, algo string, src, workers int, variant Variant) (*Result, *decisionLog) {
	t.Helper()
	dev := adaptDevice(workers)
	log := &decisionLog{}
	dev.SetTelemetry(log)
	dg, err := UploadPolicyPlaced(dev, g, AdaptivePolicy(), 8, PlaceAuto)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LookupAlgorithm(algo).Run(context.Background(), dev, dg, src, variant)
	if err != nil {
		t.Fatalf("%s/%s workers=%d: %v", g.Name, algo, workers, err)
	}
	if err := res.Validate(g); err != nil {
		t.Fatalf("%s/%s workers=%d: %v", g.Name, algo, workers, err)
	}
	return res, log
}

// testHostLink and testCXLLink are PCIe 3.0- and CXL-shaped link costs for
// the pure Decide tests.
var (
	testHostLink = LinkCosts{ReadBytesPerSec: 12.3e9, TagSeconds: 6.74e-9, BulkBytesPerSec: 12.3e9, UVMBytesPerSec: 9.12e9}
	testCXLLink  = LinkCosts{ReadBytesPerSec: 11.5e9, TagSeconds: 9.77e-9, BulkBytesPerSec: 14.4e9, UVMBytesPerSec: 8e9}
)

// TestAdaptiveDecidePure: Decide is a pure function — repeated calls with
// identical inputs produce identical outputs, garbage in the out slice is
// fully overwritten, and the inputs are never mutated.
func TestAdaptiveDecidePure(t *testing.T) {
	pol := AdaptivePolicy()
	costs := CostParams{
		Host:              testHostLink,
		UVMChunkBytes:     128 << 10,
		StagedBudgetBytes: 160 << 10,
		UVMBudgetBytes:    512 << 10,
		HoldRounds:        2,
		SwitchMargin:      1.25,
	}
	parts := []PartitionStats{
		{Bytes: 64 << 10, AccessedBytes: 60 << 10, Requests: 500},
		{Bytes: 64 << 10, AccessedBytes: 2 << 10, Requests: 64},
		{Bytes: 64 << 10, AccessedBytes: 0, Requests: 0},
		{Bytes: 64 << 10, AccessedBytes: 30 << 10, Requests: 4000},
		{Bytes: 32 << 10, AccessedBytes: 31 << 10, Requests: 250},
	}
	state := []PartitionState{
		{Choice: ChoiceZeroCopy, Since: -1, SpentSeconds: 4e-5},
		{Choice: ChoiceUVM, Since: 1},
		{Choice: ChoiceZeroCopy, Since: -1},
		{Choice: ChoiceStaged, Since: 0, Staged: true},
		{Choice: ChoiceZeroCopy, Since: -1, SpentSeconds: 9e-5},
	}
	partsCopy := append([]PartitionStats(nil), parts...)
	stateCopy := append([]PartitionState(nil), state...)

	var ref []Choice
	for trial := 0; trial < 3; trial++ {
		out := make([]Choice, len(parts))
		for i := range out {
			out[i] = Choice(trial + i) // garbage the policy must overwrite
		}
		pol.Decide(3, parts, state, costs, out)
		if trial == 0 {
			ref = out
			continue
		}
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("trial %d: out[%d] = %v, first call said %v", trial, i, out[i], ref[i])
			}
		}
	}
	for i := range parts {
		if parts[i] != partsCopy[i] || state[i] != stateCopy[i] {
			t.Fatalf("Decide mutated its inputs at partition %d", i)
		}
	}
}

// TestAdaptiveBudgetFallbackStaysInBudget: a partition that overflows one
// copy substrate's budget must not fall back to the other copy substrate,
// whose budget was settled without it. Two CXL-homed partitions served from
// resident host-DRAM copies find staging cheapest; with both budgets at
// zero, neither may end on staging nor keep its host copy.
func TestAdaptiveBudgetFallbackStaysInBudget(t *testing.T) {
	costs := CostParams{
		Host:                 testHostLink,
		CXL:                  testCXLLink,
		UVMChunkBytes:        128 << 10,
		StagedBudgetBytes:    0,
		UVMBudgetBytes:       -1,
		HostCacheBudgetBytes: 0,
		HoldRounds:           2,
		SwitchMargin:         1.25,
	}
	parts := []PartitionStats{
		{Bytes: 64 << 10, AccessedBytes: 60 << 10, Requests: 1500, CXLHome: true},
		{Bytes: 64 << 10, AccessedBytes: 60 << 10, Requests: 1500, CXLHome: true},
	}
	state := []PartitionState{
		{Choice: ChoiceHostCached, Since: -1, HostCached: true},
		{Choice: ChoiceHostCached, Since: -1, HostCached: true},
	}
	out := make([]Choice, len(parts))
	AdaptivePolicy().Decide(4, parts, state, costs, out)
	for i, c := range out {
		if c == ChoiceStaged || c == ChoiceHostCached {
			t.Errorf("partition %d bound to %v over a 0-byte budget (decisions %v)", i, c, out)
		}
	}
}

// TestAdaptiveSerialParallelEquivalence: a routed adaptive run is
// bit-for-bit identical — values, iterations, simulated elapsed, kernel
// stats, and the full decision stream — whether kernels run on one worker
// goroutine or eight. The merged+aligned cases run perfbench's
// adaptive-paging kernel on GK and SK at scales where the policy binds
// partitions to UVM, and each must launch at least one kernel that touches
// UVM pages on more than one worker, so the touch replay is exercised.
func TestAdaptiveSerialParallelEquivalence(t *testing.T) {
	for _, tc := range []struct {
		sym, algo string
		variant   Variant
		scale     float64
	}{
		{"GK", "bfs", Naive, 0.05}, {"GU", "sssp", Naive, 0.05},
		{"GK", "sssp", MergedAligned, 0.05}, {"SK", "sssp", MergedAligned, 0.1},
	} {
		spec, err := graph.BySym(tc.sym)
		if err != nil {
			t.Fatal(err)
		}
		g := spec.Build(tc.scale, 42)
		src := graph.PickSources(g, 1, 71)[0]
		name := tc.sym + "/" + tc.algo
		if tc.variant != Naive {
			name += "/" + tc.variant.String()
		}
		t.Run(name, func(t *testing.T) {
			res1, log1 := adaptiveRun(t, g, tc.algo, src, 1, tc.variant)
			res8, log8 := adaptiveRun(t, g, tc.algo, src, 8, tc.variant)
			assertResultsEqual(t, res1, res8)
			if !sameDecisions(log1.rounds, log8.rounds) {
				t.Errorf("decision streams differ:\nserial:   %v\nparallel: %v", log1.rounds, log8.rounds)
			}
			if len(log1.rounds) == 0 {
				t.Error("adaptive run decided nothing; test exercised no policy rounds")
			}
			if tc.variant != Naive && log8.uvmParallel == 0 {
				t.Error("no launch touched UVM pages on more than one worker; the touch replay went untested")
			}
		})
	}
}

// TestAdaptiveBatchedMatchesSingle: a single-lane batched run under the
// adaptive policy reproduces the single-source engine's values and round
// count, and repeated batched runs replay an identical decision stream.
// (The batched engine walks merged regardless of variant, so the
// comparison uses Merged on both sides.)
func TestAdaptiveBatchedMatchesSingle(t *testing.T) {
	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.05, 42)
	src := graph.PickSources(g, 1, 71)[0]
	single, _ := adaptiveRun(t, g, "sssp", src, 1, Merged)

	batched := func() (*Result, []string) {
		dev := adaptDevice(1)
		log := &decisionLog{}
		dev.SetTelemetry(log)
		dg, err := UploadPolicyPlaced(dev, g, AdaptivePolicy(), 8, PlaceAuto)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunBatchAlgo(context.Background(), dev, dg, "sssp", []BatchSpec{{Src: src}}, Merged)
		if err != nil {
			t.Fatal(err)
		}
		if out.Results[0].Err != nil {
			t.Fatal(out.Results[0].Err)
		}
		return out.Results[0].Res, log.rounds
	}
	b1, d1 := batched()
	b2, d2 := batched()
	if !sameLane(b1, single) {
		t.Errorf("batched lane diverged from single-source run: %d rounds vs %d", b1.Iterations, single.Iterations)
	}
	if !sameLane(b2, b1) {
		t.Errorf("repeated batched runs diverged: %d rounds vs %d", b2.Iterations, b1.Iterations)
	}
	if !sameDecisions(d1, d2) {
		t.Errorf("repeated batched runs decided differently:\nfirst:  %v\nsecond: %v", d1, d2)
	}
	if len(d1) == 0 {
		t.Error("batched adaptive run decided nothing")
	}
}

// TestAdaptiveFaultRetryReplaysDecisions: the policy runtime resets UVM
// and staged residency at run start, so a fault-injected retry observes
// the same cold substrate state and replays the identical decision
// sequence — every faulted attempt's stream is a prefix of the clean
// run's, and the clean run matches a fault-free reference exactly.
func TestAdaptiveFaultRetryReplaysDecisions(t *testing.T) {
	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.05, 42)
	src := graph.PickSources(g, 1, 71)[0]
	_, ref := adaptiveRun(t, g, "bfs", src, 1, Naive)
	want := ref.rounds

	inj, err := fault.New(fault.Config{Seed: 29, ReadFaultRate: 0.0004})
	if err != nil {
		t.Fatal(err)
	}
	s := 0.05 / 1000.0
	link := pcie.Gen3x16()
	link.Faults = inj
	dev := gpu.NewDevice(gpu.Config{
		Name:    "test-v100-capped-faulty",
		Workers: 1,
		Tiers: memsys.TwoTier(int64(float64(int64(16)<<30)*s), int64(float64(int64(256)<<30)*s),
			memsys.HBM2V100(), memsys.DDR4Quad(), link),
		L2Bytes:            int64(float64(int64(6)<<20) * s),
		MaxConcurrentLanes: int(float64(80*2048) * s),
	})
	log := &decisionLog{}
	dev.SetTelemetry(log)
	dg, err := UploadPolicyPlaced(dev, g, AdaptivePolicy(), 8, PlaceAuto)
	if err != nil {
		t.Fatal(err)
	}

	faulted := 0
	var res *Result
	for attempt := 0; attempt < 100; attempt++ {
		log.rounds = log.rounds[:0]
		r, err := BFS(context.Background(), dev, dg, src, Naive)
		if err == nil {
			res = r
			break
		}
		if !errors.Is(err, fault.ErrTransient) {
			t.Fatalf("attempt %d failed non-transiently: %v", attempt, err)
		}
		faulted++
		// A faulted attempt aborts at a round boundary; everything it
		// decided up to that point must match the clean stream's prefix.
		if len(log.rounds) > len(want) {
			t.Fatalf("faulted attempt decided %d rounds, clean run only %d", len(log.rounds), len(want))
		}
		if !sameDecisions(log.rounds, want[:len(log.rounds)]) {
			t.Fatalf("faulted attempt %d diverged from the clean decision stream:\n got %v\nwant %v",
				attempt, log.rounds, want[:len(log.rounds)])
		}
	}
	if res == nil {
		t.Fatalf("no clean epoch within 100 attempts (all %d faulted); rate too high", faulted)
	}
	if faulted == 0 {
		t.Fatal("first epoch was already clean; raise the rate so the test exercises a retry")
	}
	if err := res.Validate(g); err != nil {
		t.Fatalf("retried run produced wrong output: %v", err)
	}
	if !sameDecisions(log.rounds, want) {
		t.Errorf("clean retry decided differently from the fault-free reference:\n got %v\nwant %v", log.rounds, want)
	}
}

// TestColdCachesEvictsStagedSegments: an adaptive run's staged segment
// copies live only in its partition state, so after ResetUVMResidency (the
// device half of System.ColdCaches) a rerun pays the same staging uploads
// and reproduces the first run's statistics exactly: a "cold" rerun is
// honestly cold.
func TestColdCachesEvictsStagedSegments(t *testing.T) {
	spec, err := graph.BySym("GK")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Build(0.05, 42)
	src := graph.PickSources(g, 1, 71)[0]
	dev := adaptDevice(1)
	dg, err := UploadPolicyPlaced(dev, g, AdaptivePolicy(), 8, PlaceAuto)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (gpu.KernelStats, uint64) {
		before := dev.Monitor().Snapshot().ByClass["staged"]
		res, err := LookupAlgorithm("sssp").Run(context.Background(), dev, dg, src, Naive)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats, dev.Monitor().Snapshot().ByClass["staged"] - before
	}
	first, staged := run()
	if staged == 0 {
		t.Fatal("adaptive run staged no segments; the eviction test exercised nothing")
	}
	dev.ResetUVMResidency()
	again, restaged := run()
	if restaged != staged {
		t.Errorf("cold rerun staged %d bytes, first run %d", restaged, staged)
	}
	if again != first {
		t.Errorf("cold rerun stats differ:\nfirst: %+v\nrerun: %+v", first, again)
	}
}

// FuzzTransportPolicy: under arbitrary partition shapes, DRAM- and
// CXL-homed, the adaptive policy must stay deterministic, emit only valid
// choices, offer host-DRAM copies only to CXL-homed partitions, and respect
// both the staged and the host-cache budget.
func FuzzTransportPolicy(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), int64(192<<10), 4)
	f.Add(uint64(0), uint64(0), uint64(0), int64(0), 1)
	f.Add(uint64(1<<40), uint64(7), uint64(999), int64(-1), 9)
	f.Fuzz(func(t *testing.T, a, b, c uint64, budget int64, nParts int) {
		if nParts < 1 || nParts > 64 {
			return
		}
		// Derive partitions from the seed words with an xorshift mix; the
		// generator is deterministic so failures minimize and replay.
		x := a ^ b<<21 ^ c<<42 ^ 0x9e3779b97f4a7c15
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		costs := CostParams{
			Host:                 testHostLink,
			CXL:                  testCXLLink,
			UVMChunkBytes:        128 << 10,
			StagedBudgetBytes:    budget,
			UVMBudgetBytes:       budget * 2,
			HostCacheBudgetBytes: int64(next() % (256 << 10)),
			HoldRounds:           2,
			SwitchMargin:         1.25,
		}
		parts := make([]PartitionStats, nParts)
		state := make([]PartitionState, nParts)
		for i := range parts {
			bytes := int64(next()%(64<<10)) + 1
			parts[i] = PartitionStats{
				Bytes:         bytes,
				AccessedBytes: int64(next() % uint64(bytes+1)),
				Requests:      int64(next() % 5000),
				CXLHome:       next()%2 == 0,
			}
			choices := uint64(ChoiceHostCached) // host copies exist only for CXL homes
			if parts[i].CXLHome {
				choices = uint64(numChoices)
			}
			state[i] = PartitionState{
				Choice:       Choice(next() % choices),
				Since:        int(next()%8) - 1,
				SpentSeconds: float64(next()%1000) * 1e-6,
			}
			state[i].Staged = state[i].Choice == ChoiceStaged
			state[i].HostCached = state[i].Choice == ChoiceHostCached
		}
		pol := AdaptivePolicy()
		out1 := make([]Choice, nParts)
		out2 := make([]Choice, nParts)
		for i := range out2 {
			out2[i] = ChoiceStaged // garbage that must be overwritten
		}
		round := int(next() % 16)
		pol.Decide(round, parts, state, costs, out1)
		pol.Decide(round, parts, state, costs, out2)
		var stagedBytes, cachedBytes int64
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("nondeterministic decision at partition %d: %v vs %v", i, out1[i], out2[i])
			}
			switch out1[i] {
			case ChoiceZeroCopy, ChoiceUVM:
			case ChoiceStaged:
				stagedBytes += parts[i].Bytes
			case ChoiceHostCached:
				if !parts[i].CXLHome {
					t.Fatalf("host-DRAM copy chosen for DRAM-homed partition %d", i)
				}
				cachedBytes += parts[i].Bytes
			default:
				t.Fatalf("invalid choice %d at partition %d", out1[i], i)
			}
		}
		if costs.StagedBudgetBytes >= 0 && stagedBytes > costs.StagedBudgetBytes {
			t.Fatalf("staged %d bytes over the %d budget", stagedBytes, costs.StagedBudgetBytes)
		}
		if cachedBytes > costs.HostCacheBudgetBytes {
			t.Fatalf("host-cached %d bytes over the %d budget", cachedBytes, costs.HostCacheBudgetBytes)
		}
	})
}

// rotatingPolicy binds partition p to zero-copy, UVM or a staged copy by
// (p+round) mod 3, so every round rewrites the route table, and checks at
// each decision that the weights resolve through the edge binding: weight
// offset off is served like edge offset off/4*EdgeBytes.
type rotatingPolicy struct {
	t      *testing.T
	dg     *DeviceGraph
	checks int
}

func (p *rotatingPolicy) Name() string                   { return "rotating" }
func (p *rotatingPolicy) Description() string            { return "test: rotates bindings per round" }
func (p *rotatingPolicy) Static() (t Transport, ok bool) { return 0, false }
func (p *rotatingPolicy) Decide(round int, _ []PartitionStats, _ []PartitionState, _ CostParams, out []Choice) {
	if dg := p.dg; dg != nil {
		ew := int64(dg.EdgeBytes)
		spaces := map[memsys.Space]bool{}
		for off := int64(0); off < dg.Weights.Size(); off += 4 {
			want := dg.Edges.SpaceAt(off / 4 * ew)
			if got := dg.Weights.SpaceAt(off); got != want {
				p.t.Fatalf("EdgeBytes %d round %d: Weights.SpaceAt(%d) = %v, Edges.SpaceAt(%d) = %v",
					ew, round, off, got, off/4*ew, want)
			}
			spaces[want] = true
		}
		if round > 0 && len(spaces) < 3 {
			p.t.Fatalf("EdgeBytes %d round %d: %d distinct bindings, want 3", ew, round, len(spaces))
		}
		p.checks++
	}
	choices := [...]Choice{ChoiceZeroCopy, ChoiceUVM, ChoiceStaged}
	for i := range out {
		out[i] = choices[(i+round)%len(choices)]
	}
}

// TestRouteTableWeights: on a weighted routed run with mixed bindings, the
// weights' route table (the edges' table at a shifted index) resolves every
// weight offset to its edge's space, for 4- and 8-byte edges.
func TestRouteTableWeights(t *testing.T) {
	g := graph.Urand("gu", 6000, 16, 2)
	g.InitWeights(7, 8, 72)
	src := graph.PickSources(g, 1, 71)[0]
	for _, edgeBytes := range []int{4, 8} {
		dev := gpu.NewDevice(gpu.Config{
			Name:    "route-table",
			Workers: 2,
			Tiers:   memsys.TwoTier(0, 0, memsys.HBM2V100(), memsys.DDR4Quad(), pcie.Gen3x16()),
		})
		pol := &rotatingPolicy{t: t}
		dg, err := UploadPolicyPlaced(dev, g, pol, edgeBytes, PlaceAuto)
		if err != nil {
			t.Fatal(err)
		}
		if dg.Edges.Segments() < 3 {
			t.Fatalf("EdgeBytes %d: %d edge segments, want at least 3", edgeBytes, dg.Edges.Segments())
		}
		pol.dg = dg
		res, err := LookupAlgorithm("sssp").Run(context.Background(), dev, dg, src, MergedAligned)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(g); err != nil {
			t.Fatalf("EdgeBytes %d: %v", edgeBytes, err)
		}
		if pol.checks < 3 {
			t.Errorf("EdgeBytes %d: %d routed rounds checked, want at least 3", edgeBytes, pol.checks)
		}
	}
}
