package bench

import (
	"context"
	"fmt"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/pcie"
	"repro/internal/uvm"
)

// Ablations isolate the simulator's and EMOGI's design choices: each table
// varies exactly one knob and reports how the headline behaviour moves.
// They back the DESIGN.md claims that the reproduced shapes come from the
// modeled mechanisms rather than tuning.

// newV100 builds a fresh scaled V100 device.
func newV100(cfg Config) *gpu.Device {
	return cfg.Device(emogi.V100PCIe3(cfg.Scale).GPU)
}

// AblationUVMBlock sweeps the UVM driver's prefetch block size and reports
// BFS I/O amplification and time on GK — the knob behind Figure 10's UVM
// bars.
func AblationUVMBlock(ds *Datasets) (*Table, error) {
	cfg := ds.Config()
	g := ds.Get("GK")
	src := ds.Sources("GK")[0]
	t := &Table{
		Title:  "Ablation: UVM prefetch block size (BFS on GK)",
		Header: []string{"block pages", "migrations", "amplification", "time ms"},
	}
	for _, block := range []int{1, 8, 16, 32, 64} {
		dev := newV100(cfg)
		dg, err := core.Upload(dev, g, core.UVM, 8)
		if err != nil {
			return nil, err
		}
		// Rebuild the UVM manager with the ablated block size, keeping the
		// device's capacity and paging mode.
		ucfg := dev.UVM().Config()
		ucfg.BlockPages = block
		*dev.UVM() = *uvm.NewManager(ucfg)
		res, err := core.BFS(context.Background(), dev, dg, src, core.Merged)
		if err != nil {
			return nil, err
		}
		amp := float64(res.Stats.PCIePayloadBytes) / float64(g.EdgeListBytes(8))
		t.AddRow(fmt.Sprintf("%d", block),
			fmt.Sprintf("%d", res.Stats.UVMMigrations),
			fnum(amp),
			fnum(res.Elapsed.Seconds()*1e3))
	}
	t.Notes = append(t.Notes,
		"larger blocks amplify scattered frontiers; the calibrated default is 32")
	return t, nil
}

// AblationWorkerSize sweeps the worker lanes per vertex (§4.3.1's design
// argument: 32 is right for out-of-memory traversal).
func AblationWorkerSize(ds *Datasets) (*Table, error) {
	cfg := ds.Config()
	g := ds.Get("ML") // long lists make worker granularity visible
	src := ds.Sources("ML")[0]
	t := &Table{
		Title:  "Ablation: worker size (aligned BFS on ML)",
		Header: []string{"worker lanes", "PCIe requests", "128B share", "time ms"},
	}
	for _, worker := range []int{4, 8, 16, 32} {
		dev := newV100(cfg)
		dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
		if err != nil {
			return nil, err
		}
		res, err := core.BFSWithWorker(context.Background(), dev, dg, src, worker, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", worker),
			fmt.Sprintf("%d", res.Stats.PCIeRequests),
			pct(dev.Monitor().SizeFraction(128)),
			fnum(res.Elapsed.Seconds()*1e3))
	}
	t.Notes = append(t.Notes,
		"paper §4.3.1: shrinking the worker below a warp only shrinks requests",
		"and wastes the constrained interconnect")
	return t, nil
}

// AblationCompression compares plain and delta-compressed traversal (§6's
// compression direction) across the datasets.
func AblationCompression(ds *Datasets) (*Table, error) {
	cfg := ds.Config()
	t := &Table{
		Title:  "Ablation: compressed edge lists (aligned BFS)",
		Header: []string{"graph", "ratio", "plain MB", "compressed MB", "plain ms", "compressed ms"},
	}
	for _, sym := range AllSyms() {
		g := ds.Get(sym)
		src := ds.Sources(sym)[0]

		dev := newV100(cfg)
		dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
		if err != nil {
			return nil, err
		}
		plain, err := core.BFS(context.Background(), dev, dg, src, core.MergedAligned)
		if err != nil {
			return nil, err
		}
		devC := newV100(cfg)
		cdg, err := core.UploadCompressed(devC, g)
		if err != nil {
			return nil, err
		}
		comp, err := core.BFSCompressed(context.Background(), devC, cdg, src)
		if err != nil {
			return nil, err
		}
		t.AddRow(sym,
			fnum(cdg.Ratio()),
			fnum(float64(plain.Stats.PCIePayloadBytes)/1e6),
			fnum(float64(comp.Stats.PCIePayloadBytes)/1e6),
			fnum(plain.Elapsed.Seconds()*1e3),
			fnum(comp.Elapsed.Seconds()*1e3))
	}
	t.Notes = append(t.Notes,
		"paper §6: compression trades idle lanes for bytes; wins grow with ID locality")
	return t, nil
}

// AblationThrash sweeps the L2 thrash sensitivity and reports the Naive
// variant's time relative to UVM — the single fitted constant behind
// Figure 9's Naive bars.
func AblationThrash(ds *Datasets) (*Table, error) {
	cfg := ds.Config()
	g := ds.Get("GK")
	src := ds.Sources("GK")[0]

	devU := newV100(cfg)
	dgU, err := core.Upload(devU, g, core.UVM, 8)
	if err != nil {
		return nil, err
	}
	uvmRes, err := core.BFS(context.Background(), devU, dgU, src, core.Merged)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Ablation: L2 thrash sensitivity (Naive BFS on GK, vs UVM)",
		Header: []string{"sensitivity", "refetches", "naive ms", "naive/UVM"},
	}
	for _, sens := range []float64{0.01, 0.25, 0.40, 1.0} {
		gcfg := emogi.V100PCIe3(cfg.Scale).GPU
		gcfg.ThrashSensitivity = sens
		dev := cfg.Device(gcfg)
		dg, err := core.Upload(dev, g, core.ZeroCopy, 8)
		if err != nil {
			return nil, err
		}
		res, err := core.BFS(context.Background(), dev, dg, src, core.Naive)
		if err != nil {
			return nil, err
		}
		t.AddRow(fnum(sens),
			fmt.Sprintf("%d", res.Stats.ZCRefetches),
			fnum(res.Elapsed.Seconds()*1e3),
			fnum(float64(uvmRes.Elapsed)/float64(res.Elapsed)))
	}
	t.Notes = append(t.Notes,
		"the default 0.40 is the constant calibrated against the paper's Naive=0.73x")
	return t, nil
}

// AblationLink sweeps the interconnect from PCIe 3.0 x4 to 4.0 x16 and
// reports EMOGI and UVM BFS times on GK — the general form of the paper's
// contribution (3): "EMOGI performance scales linearly with CPU-GPU
// interconnect bandwidth improvement".
func AblationLink(ds *Datasets) (*Table, error) {
	cfg := ds.Config()
	g := ds.Get("GK")
	src := ds.Sources("GK")[0]
	t := &Table{
		Title:  "Ablation: interconnect bandwidth (BFS on GK)",
		Header: []string{"link", "memcpy GB/s", "EMOGI ms", "UVM ms", "EMOGI speedup"},
	}
	links := []struct {
		gen   pcie.Gen
		lanes int
	}{
		{pcie.Gen3, 4}, {pcie.Gen3, 8}, {pcie.Gen3, 16}, {pcie.Gen4, 16},
	}
	for _, l := range links {
		link := pcie.Link(l.gen, l.lanes)

		// Swap the interconnect on the host DRAM tier, the one place the
		// device's link model lives.
		gcfg := emogi.V100PCIe3(cfg.Scale).GPU
		gcfg.Tiers.DRAM().Link = link
		devE := cfg.Device(gcfg)
		dgE, err := core.Upload(devE, g, core.ZeroCopy, 8)
		if err != nil {
			return nil, err
		}
		em, err := core.BFS(context.Background(), devE, dgE, src, core.MergedAligned)
		if err != nil {
			return nil, err
		}

		devU := cfg.Device(gcfg)
		dgU, err := core.Upload(devU, g, core.UVM, 8)
		if err != nil {
			return nil, err
		}
		uvmRes, err := core.BFS(context.Background(), devU, dgU, src, core.Merged)
		if err != nil {
			return nil, err
		}
		t.AddRow(link.Name,
			gb(link.MemcpyPeak()),
			fnum(em.Elapsed.Seconds()*1e3),
			fnum(uvmRes.Elapsed.Seconds()*1e3),
			fnum(float64(uvmRes.Elapsed)/float64(em.Elapsed)))
	}
	t.Notes = append(t.Notes,
		"EMOGI time tracks 1/bandwidth; UVM flattens once the fault pipeline",
		"dominates (the Figure 12 mechanism, swept across four link speeds)")
	return t, nil
}

// AblationEdgeCentric compares the §2.1 methods: vertex-centric scatter
// (EMOGI's choice) against an edge-centric streamer that re-reads the COO
// edge array every iteration with perfect 128B requests.
func AblationEdgeCentric(ds *Datasets) (*Table, error) {
	cfg := ds.Config()
	t := &Table{
		Title:  "Ablation: vertex-centric vs edge-centric BFS",
		Header: []string{"graph", "iters", "vertex MB", "edge MB", "vertex ms", "edge ms"},
	}
	for _, sym := range []string{"GK", "GU", "SK"} {
		g := ds.Get(sym)
		src := ds.Sources(sym)[0]

		devV := newV100(cfg)
		dg, err := core.Upload(devV, g, core.ZeroCopy, 8)
		if err != nil {
			return nil, err
		}
		vert, err := core.BFS(context.Background(), devV, dg, src, core.MergedAligned)
		if err != nil {
			return nil, err
		}
		devE := newV100(cfg)
		ec, err := core.UploadEdgeCentric(devE, g)
		if err != nil {
			return nil, err
		}
		edge, err := core.BFSEdgeCentric(context.Background(), devE, ec, src)
		if err != nil {
			return nil, err
		}
		t.AddRow(sym,
			fmt.Sprintf("%d", edge.Iterations),
			fnum(float64(vert.Stats.PCIePayloadBytes)/1e6),
			fnum(float64(edge.Stats.PCIePayloadBytes)/1e6),
			fnum(vert.Elapsed.Seconds()*1e3),
			fnum(edge.Elapsed.Seconds()*1e3))
	}
	t.Notes = append(t.Notes,
		"§2.1: edge-centric streams |E| per iteration regardless of frontier size;",
		"perfect request shapes cannot pay for the extra bytes")
	return t, nil
}

// AblationDirectionOpt compares plain push BFS with the direction-optimized
// (push/pull) extension on the wide-frontier graphs where bottom-up levels
// pay off.
func AblationDirectionOpt(ds *Datasets) (*Table, error) {
	cfg := ds.Config()
	t := &Table{
		Title:  "Ablation: direction-optimized BFS (push/pull over zero-copy)",
		Header: []string{"graph", "push MB", "push/pull MB", "push ms", "push/pull ms"},
	}
	for _, sym := range []string{"GU", "FS", "ML"} {
		g := ds.Get(sym)
		src := ds.Sources(sym)[0]

		devP := newV100(cfg)
		dgP, err := core.Upload(devP, g, core.ZeroCopy, 8)
		if err != nil {
			return nil, err
		}
		push, err := core.BFS(context.Background(), devP, dgP, src, core.MergedAligned)
		if err != nil {
			return nil, err
		}
		devD := newV100(cfg)
		dgD, err := core.Upload(devD, g, core.ZeroCopy, 8)
		if err != nil {
			return nil, err
		}
		do, err := core.BFSDirectionOptimized(context.Background(), devD, dgD, src, core.DefaultPushPullConfig())
		if err != nil {
			return nil, err
		}
		t.AddRow(sym,
			fnum(float64(push.Stats.PCIePayloadBytes)/1e6),
			fnum(float64(do.Stats.PCIePayloadBytes)/1e6),
			fnum(push.Elapsed.Seconds()*1e3),
			fnum(do.Elapsed.Seconds()*1e3))
	}
	t.Notes = append(t.Notes,
		"§6: classic traversal optimizations compose with zero-copy; pull's early",
		"exit skips most of the edge list on wide frontiers")
	return t, nil
}
