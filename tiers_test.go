package emogi

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gpu"
	"repro/internal/pcie"
)

func TestTierCatalogAndAliases(t *testing.T) {
	stacks := TierStacks()
	if len(stacks) != 2 || stacks[0].Name != "2tier" || stacks[1].Name != "3tier-cxl" {
		t.Fatalf("catalog = %+v", stacks)
	}
	for name, want := range map[string]string{
		"2tier": "2tier", "two-tier": "2tier", "pcie": "2tier", "default": "2tier", "": "2tier",
		"3tier-cxl": "3tier-cxl", "3tier": "3tier-cxl", "cxl": "3tier-cxl",
		"three-tier": "3tier-cxl", "CXL": "3tier-cxl", " 3TIER ": "3tier-cxl",
	} {
		e, err := TierStackByName(name)
		if err != nil {
			t.Errorf("TierStackByName(%q): %v", name, err)
			continue
		}
		if e.Name != want {
			t.Errorf("TierStackByName(%q) = %s, want %s", name, e.Name, want)
		}
	}
	_, err := TierStackByName("nvlink")
	if err == nil {
		t.Fatal("unknown tier stack should error")
	}
	for _, frag := range []string{"2tier", "3tier-cxl", "cxl", "pcie"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error should list %q: %v", frag, err)
		}
	}
}

func TestSystemConfigTierStackDerivation(t *testing.T) {
	for _, mk := range []func(float64) SystemConfig{V100PCIe3, TitanXpPCIe3, A100PCIe3, A100PCIe4} {
		cfg := mk(0.05)
		ts := cfg.GPU.Tiers
		if err := ts.Validate(); err != nil {
			t.Errorf("%s: platform stack invalid: %v", cfg.Name, err)
		}
		if ts.CXL() != nil {
			t.Errorf("%s: platform constructors are two-tier", cfg.Name)
		}
	}
}

func TestApplyTierStackThreeTier(t *testing.T) {
	base := V100PCIe3(0.05)
	cfg, err := ApplyTierStack(base, "3tier-cxl")
	if err != nil {
		t.Fatal(err)
	}
	ts := cfg.GPU.Tiers
	if ts.CXL() == nil {
		t.Fatal("3tier-cxl config has no CXL tier")
	}
	if got, want := ts.CXL().CapacityBytes, 4*base.GPU.Tiers.DRAM().CapacityBytes; got != want {
		t.Errorf("CXL capacity = %d, want 4x host DRAM = %d", got, want)
	}
	if base.GPU.Tiers.CXL() != nil {
		t.Error("ApplyTierStack modified the base configuration's stack")
	}
	two, err := ApplyTierStack(base, "2tier")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(two.GPU.Tiers, base.GPU.Tiers) {
		t.Error("2tier should leave the platform's stack unchanged")
	}
	if _, err := ApplyTierStack(base, "bogus"); err == nil {
		t.Error("unknown stack name should error")
	}
}

// TestThreeTierTraversalEndToEnd drives the public API through a 3-tier
// system: CXL placement must produce CXL traffic and exact results, and the
// two-tier system must reject CXL placement with a clear error.
func TestThreeTierTraversalEndToEnd(t *testing.T) {
	cfg, err := ApplyTierStack(V100PCIe3(0.02), "3tier-cxl")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(cfg)
	g, err := BuildDataset("GK", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := sys.Load(g, WithPlacement(PlaceCXL))
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 71)[0]
	res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Variant: MergedAligned})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res); err != nil {
		t.Fatalf("CXL-placed traversal wrong: %v", err)
	}
	if res.Stats.CXLRequests == 0 || res.Stats.CXLPayloadBytes == 0 {
		t.Errorf("CXL-placed run recorded no CXL traffic: reqs=%d payload=%d",
			res.Stats.CXLRequests, res.Stats.CXLPayloadBytes)
	}

	// Request-level placement moves the graph back to DRAM; the following
	// run must be CXL-quiet.
	res2, err := sys.Do(context.Background(), Request{
		Graph: dg, Algo: "bfs", Src: src, Variant: MergedAligned, Placement: PlaceDRAM})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res2); err != nil {
		t.Fatalf("re-homed traversal wrong: %v", err)
	}
	if res2.Stats.CXLRequests != 0 {
		t.Errorf("DRAM-re-homed run still issued %d CXL requests", res2.Stats.CXLRequests)
	}

	// Two-tier systems reject CXL placement at load.
	sys2 := NewSystem(V100PCIe3(0.02))
	if _, err := sys2.Load(g, WithPlacement(PlaceCXL)); err == nil {
		t.Error("PlaceCXL on a two-tier system should fail at Load")
	}
}

// TestWithTierStackAtLoad attaches the CXL tier through the Load option on
// a system built two-tier.
func TestWithTierStackAtLoad(t *testing.T) {
	cfg := V100PCIe3(0.02)
	sys := NewSystem(cfg)
	g, err := BuildDataset("GU", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	ts := ThreeTierCXL(cfg.GPU.Tiers, 4*cfg.GPU.Tiers.DRAM().CapacityBytes)
	dg, err := sys.Load(g, WithTierStack(ts), WithPlacement(PlaceCXL))
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 71)[0]
	res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Variant: MergedAligned})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.CXLRequests == 0 {
		t.Error("load-time-attached CXL tier served no traffic")
	}

	if sys.Device().Config().Tiers.CXL() == nil {
		t.Error("device configuration does not report the attached CXL tier")
	}

	// Only the CXL tier may change: a stack whose DRAM tier differs from
	// the machine's in capacity or in link is rejected.
	bigger := slices.Clone(ts)
	bigger.DRAM().CapacityBytes++
	gen4 := slices.Clone(ts)
	gen4.DRAM().Link = pcie.Gen4x16()
	for name, bad := range map[string]TierStack{"DRAM capacity": bigger, "DRAM link": gen4} {
		if _, err := sys.Load(g, WithTierStack(bad)); err == nil {
			t.Errorf("tier stack with a different %s should fail at Load", name)
		}
	}
	if got := sys.Device().Config().Tiers.DRAM().Link.Name; got != pcie.Gen3x16().Name {
		t.Errorf("device reports DRAM link %q after rejected stacks, want %q", got, pcie.Gen3x16().Name)
	}
}

// TestFaultsOnThreeTierStack combines fault injection with the named CXL
// stack, as emogi-serve -tiers 3tier-cxl -fault-profile does: on a
// DRAM-homed graph the injector must hit the same requests whether or not
// a CXL tier sits below host DRAM.
func TestFaultsOnThreeTierStack(t *testing.T) {
	g, err := BuildDataset("GK", smallScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	srcs := PickSources(g, 3, 71)
	run := func(tiers string) gpu.KernelStats {
		fcfg, err := fault.ProfileConfig("flaky-link", 7)
		if err != nil {
			t.Fatal(err)
		}
		inj, err := fault.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ApplyTierStack(V100PCIe3(smallScale), tiers)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
		sys := NewSystem(cfg)
		dg, err := sys.Load(g, WithPlacement(PlaceDRAM))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			// A faulted run fails with ErrTransient; its kernels still count.
			_, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Variant: MergedAligned})
			if err != nil && !errors.Is(err, ErrTransient) {
				t.Fatalf("%s: %v", tiers, err)
			}
		}
		return sys.Device().Total()
	}
	two, three := run("2tier"), run("3tier-cxl")
	if two.FaultedReads == 0 || two.LatencySpikes == 0 {
		t.Fatalf("flaky-link injected nothing on the two-tier system: faulted=%d spikes=%d",
			two.FaultedReads, two.LatencySpikes)
	}
	if three.FaultedReads != two.FaultedReads || three.LatencySpikes != two.LatencySpikes {
		t.Errorf("3tier-cxl faults = %d reads, %d spikes; 2tier = %d, %d",
			three.FaultedReads, three.LatencySpikes, two.FaultedReads, two.LatencySpikes)
	}
	if three.CXLRequests != 0 {
		t.Errorf("DRAM-homed graph issued %d CXL requests", three.CXLRequests)
	}
}

// TestGPUDrivenPagingSystem checks the system-level paging selector: same
// migrations, faster UVM-bound runs. The selector is GPU.GPUDrivenPaging,
// and NewSystem must carry it to the device as set.
func TestGPUDrivenPagingSystem(t *testing.T) {
	g, err := BuildDataset("GK", 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	src := PickSources(g, 1, 71)[0]
	run := func(gpuDriven bool) *Result {
		cfg := V100PCIe3(0.02)
		cfg.GPU.GPUDrivenPaging = gpuDriven
		sys := NewSystem(cfg)
		if got := sys.Config().GPU.GPUDrivenPaging; got != gpuDriven {
			t.Fatalf("NewSystem ran GPU.GPUDrivenPaging = %v, want %v", got, gpuDriven)
		}
		dg, err := sys.Load(g, WithTransportPolicy(StaticPolicy(UVM)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Do(context.Background(), Request{Graph: dg, Algo: "bfs", Src: src, Variant: Merged})
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(g, res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	cpu, gpu := run(false), run(true)
	if cpu.Stats.UVMMigrations != gpu.Stats.UVMMigrations {
		t.Errorf("paging models disagree on migrations: %d vs %d",
			cpu.Stats.UVMMigrations, gpu.Stats.UVMMigrations)
	}
	if gpu.Elapsed >= cpu.Elapsed {
		t.Errorf("GPU-driven paging should beat the CPU fault handler on a UVM run: %v vs %v",
			gpu.Elapsed, cpu.Elapsed)
	}
}

// TestParseFlags covers the shared CLI parsers: every name and alias
// (any case), and the error text for an unknown name.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		parser, in string
		want       any
		err        string
	}{
		{"variant", "naive", Naive, ""},
		{"variant", "Merged", Merged, ""},
		{"variant", "merged+aligned", MergedAligned, ""},
		{"variant", "aligned", MergedAligned, ""},
		{"variant", "MERGEDALIGNED", MergedAligned, ""},
		{"variant", "coalesced", nil, `unknown variant "coalesced" (want naive, merged, or merged+aligned)`},
		{"platform", "v100", "V100 + PCIe 3.0", ""},
		{"platform", "TitanXp", "Titan Xp + PCIe 3.0", ""},
		{"platform", "a100-pcie3", "A100 + PCIe 3.0", ""},
		{"platform", "a100-pcie4", "A100 + PCIe 4.0", ""},
		{"platform", "a100", "A100 + PCIe 4.0", ""},
		{"platform", "h100", nil, `unknown platform "h100"`},
		{"paging", "cpu", false, ""},
		{"paging", "", false, ""},
		{"paging", "GPU", true, ""},
		{"paging", "host", nil, `unknown paging model "host" (want cpu or gpu)`},
	} {
		var got any
		var err error
		switch tc.parser {
		case "variant":
			got, err = ParseVariant(tc.in)
		case "platform":
			var cfg SystemConfig
			cfg, err = ParsePlatform(tc.in, 0.02)
			got = cfg.Name
		case "paging":
			got, err = ParsePaging(tc.in)
		}
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s %q: err = %v, want %q", tc.parser, tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("%s %q = %v, %v; want %v", tc.parser, tc.in, got, err, tc.want)
		}
	}
}
