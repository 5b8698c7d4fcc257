package bench

import (
	"context"
	"fmt"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/graph"
)

// Claims runs the paper's headline *shape* claims as executable checks:
// each row is one qualitative statement from the paper, a target derived
// from it, the measured value, and a PASS/FAIL verdict. This is the
// machine-checkable summary of EXPERIMENTS.md — run it after any model
// change to see which paper behaviours still hold.
//
// Thresholds are deliberately looser than the paper's point values: they
// encode the *direction and rough magnitude* a reproduction must preserve,
// not measurement noise.
func Claims(ds *Datasets) (*Table, error) {
	t := &Table{
		Title:  "Paper claims check",
		Header: []string{"claim", "paper", "measured", "verdict"},
	}
	cfg := ds.Config()
	check := func(name, paper string, measured float64, format string, ok bool) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		t.AddRow(name, paper, fmt.Sprintf(format, measured), verdict)
	}

	// --- §3.3 toy claims ---
	link := emogi.V100PCIe3(cfg.Scale).GPU.Tiers.DRAM().Link
	toy := func(p core.ToyPattern, tr core.Transport) *core.ToyResult {
		dev := newToyDevice(cfg)
		r, err := core.ToyTraverse(dev, toyElems(cfg), p, tr)
		if err != nil {
			panic(err)
		}
		return r
	}
	aligned := toy(core.ToyMergedAligned, core.ZeroCopy)
	strided := toy(core.ToyStrided, core.ZeroCopy)
	mis := toy(core.ToyMergedMisaligned, core.ZeroCopy)
	uvmToy := toy(core.ToyMergedAligned, core.UVM)

	peak := link.MemcpyPeak()
	check("aligned zero-copy saturates PCIe", "≈ memcpy peak",
		aligned.PCIeBandwidth/peak, "%.2f of peak",
		aligned.PCIeBandwidth > 0.97*peak)
	check("strided is tag-limited", "4.74 GB/s",
		strided.PCIeBandwidth/1e9, "%.2f GB/s",
		strided.PCIeBandwidth > 4.3e9 && strided.PCIeBandwidth < 5.2e9)
	check("strided doubles DRAM traffic", "2.0x",
		strided.DRAMBandwidth/strided.PCIeBandwidth, "%.2fx",
		strided.DRAMBandwidth/strided.PCIeBandwidth > 1.9)
	check("misalignment costs ~25%", "9.6 vs 12.3 GB/s",
		mis.PCIeBandwidth/aligned.PCIeBandwidth, "%.2f of aligned",
		mis.PCIeBandwidth < 0.85*aligned.PCIeBandwidth &&
			mis.PCIeBandwidth > 0.65*aligned.PCIeBandwidth)
	check("UVM stream below zero-copy peak", "9.1 vs 12.3 GB/s",
		uvmToy.PCIeBandwidth/1e9, "%.2f GB/s",
		uvmToy.PCIeBandwidth > 8.5e9 && uvmToy.PCIeBandwidth < 9.8e9)

	// --- BFS case-study claims on a representative skewed graph ---
	g := ds.Get("GK")
	src := ds.Sources("GK")[0]
	run := func(transport core.Transport, v core.Variant) *core.Result {
		dev := newV100(cfg)
		dg, err := core.Upload(dev, g, transport, 8)
		if err != nil {
			panic(err)
		}
		res, err := core.BFS(context.Background(), dev, dg, src, v)
		if err != nil {
			panic(err)
		}
		if err := core.ValidateBFS(g, src, res.Values); err != nil {
			panic(err)
		}
		return res
	}
	uvmRes := run(core.UVM, core.Merged)
	naive := run(core.ZeroCopy, core.Naive)
	merged := run(core.ZeroCopy, core.Merged)
	alignedRes := run(core.ZeroCopy, core.MergedAligned)

	check("naive is slower than UVM", "0.73x",
		float64(uvmRes.Elapsed)/float64(naive.Elapsed), "%.2fx",
		naive.Elapsed > uvmRes.Elapsed)
	check("merged beats UVM well", ">2x",
		float64(uvmRes.Elapsed)/float64(merged.Elapsed), "%.2fx",
		uvmRes.Elapsed > 2*merged.Elapsed)
	check("alignment adds on top of merge", "1.10x",
		float64(merged.Elapsed)/float64(alignedRes.Elapsed), "%.2fx",
		alignedRes.Elapsed < merged.Elapsed)
	edgeBytes := float64(g.EdgeListBytes(8))
	check("EMOGI amplification small", "≤1.31x",
		float64(alignedRes.Stats.PCIePayloadBytes)/edgeBytes, "%.2fx",
		float64(alignedRes.Stats.PCIePayloadBytes) < 1.31*edgeBytes)
	check("UVM amplification large", "up to 5.16x",
		float64(uvmRes.Stats.PCIePayloadBytes)/edgeBytes, "%.2fx",
		float64(uvmRes.Stats.PCIePayloadBytes) > 1.8*edgeBytes)

	// --- SK: the graph that almost fits ---
	gs := ds.Get("SK")
	srcS := ds.Sources("SK")[0]
	runOn := func(g2 *graph.CSR, src2 int, transport core.Transport, v core.Variant) *core.Result {
		dev := newV100(cfg)
		dg, err := core.Upload(dev, g2, transport, 8)
		if err != nil {
			panic(err)
		}
		res, err := core.BFS(context.Background(), dev, dg, src2, v)
		if err != nil {
			panic(err)
		}
		return res
	}
	skUVM := runOn(gs, srcS, core.UVM, core.Merged)
	skEmogi := runOn(gs, srcS, core.ZeroCopy, core.MergedAligned)
	skSpeed := float64(skUVM.Elapsed) / float64(skEmogi.Elapsed)
	check("SK (fits in memory) is the weakest win", "1.21x",
		skSpeed, "%.2fx", skSpeed > 0.9 && skSpeed < 1.8)

	// --- PCIe 4.0 scaling ---
	runA100 := func(platform func(float64) emogi.SystemConfig, transport core.Transport, v core.Variant) *core.Result {
		sys := cfg.System(platform(cfg.Scale))
		dg, err := sys.Load(g, emogi.WithTransportPolicy(emogi.StaticPolicy(transport)))
		if err != nil {
			panic(err)
		}
		res, err := sys.Do(context.Background(),
			emogi.Request{Graph: dg, Algo: "bfs", Src: src, Variant: v})
		if err != nil {
			panic(err)
		}
		return res
	}
	e3 := runA100(emogi.A100PCIe3, core.ZeroCopy, core.MergedAligned)
	e4 := runA100(emogi.A100PCIe4, core.ZeroCopy, core.MergedAligned)
	u3 := runA100(emogi.A100PCIe3, core.UVM, core.Merged)
	u4 := runA100(emogi.A100PCIe4, core.UVM, core.Merged)
	emogiScale := float64(e3.Elapsed) / float64(e4.Elapsed)
	uvmScale := float64(u3.Elapsed) / float64(u4.Elapsed)
	// Per-level fixed overheads (kernel launch, flag copies) do not scale
	// with the dataset, so the absolute scaling factor compresses at small
	// Config.Scale; the shape claim is that EMOGI out-scales UVM and both
	// scale at all. Full-scale runs measure 1.92x vs 1.55x (EXPERIMENTS.md).
	check("EMOGI scales with PCIe 4.0", "1.9x at full scale",
		emogiScale, "%.2fx", emogiScale > 1.3)
	check("UVM scaling capped by fault pipeline", "1.53x",
		uvmScale, "%.2fx", uvmScale < emogiScale && uvmScale > 1.1)

	return t, nil
}
