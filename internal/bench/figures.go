package bench

import (
	"fmt"

	emogi "repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
)

// newToyDevice builds the V100 device used by the §3.3 toy experiments.
// GPU memory is uncapped: the toy's output array lives in GPU memory and
// capacity is not what the experiment characterizes.
func newToyDevice(cfg Config) *gpu.Device {
	gc := emogi.V100PCIe3(cfg.Scale).GPU
	gc.Tiers.HBM().CapacityBytes = 0
	return cfg.Device(gc)
}

// toyElems sizes the §3.3 1D array: 16MB of 4-byte elements at full scale.
func toyElems(cfg Config) int {
	e := int(4 << 20 * cfg.Scale)
	if e < 1<<16 {
		e = 1 << 16
	}
	return e
}

// Figure3 characterizes the toy example's PCIe request patterns: the
// request-size mix of the strided, merged+aligned, and merged-misaligned
// kernels (paper Figure 3, observed via the FPGA monitor).
func Figure3(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 3: GPU PCIe request patterns (toy 1D traversal)",
		Header: []string{"pattern", "requests", "32B", "64B", "96B", "128B"},
	}
	for _, p := range []core.ToyPattern{core.ToyStrided, core.ToyMergedAligned, core.ToyMergedMisaligned} {
		dev := newToyDevice(cfg)
		r, err := core.ToyTraverse(dev, toyElems(cfg), p, core.ZeroCopy)
		if err != nil {
			return nil, err
		}
		total := float64(r.Snapshot.Requests)
		row := []string{p.String(), fmt.Sprintf("%d", r.Snapshot.Requests)}
		for _, size := range []int64{32, 64, 96, 128} {
			row = append(row, pct(float64(r.Snapshot.BySize[size])/total))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure4 measures the toy example's average PCIe and DRAM bandwidths for
// the three zero-copy patterns plus the UVM reference line (paper Figure 4).
func Figure4(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Figure 4: toy traversal bandwidth (GB/s)",
		Header: []string{"configuration", "PCIe", "DRAM"},
	}
	type variant struct {
		name      string
		pattern   core.ToyPattern
		transport core.Transport
	}
	for _, v := range []variant{
		{"(a) Strided", core.ToyStrided, core.ZeroCopy},
		{"(b) Merged and Aligned", core.ToyMergedAligned, core.ZeroCopy},
		{"(c) Merged but Misaligned", core.ToyMergedMisaligned, core.ZeroCopy},
		{"UVM reference", core.ToyMergedAligned, core.UVM},
	} {
		dev := newToyDevice(cfg)
		r, err := core.ToyTraverse(dev, toyElems(cfg), v.pattern, v.transport)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, gb(r.PCIeBandwidth), gb(r.DRAMBandwidth))
	}
	peak := emogi.V100PCIe3(cfg.Scale).GPU.Tiers.DRAM().Link.MemcpyPeak()
	t.Notes = append(t.Notes, "cudaMemcpy peak: "+gb(peak)+" GB/s")
	return t, nil
}

// Table1 prints the simulated evaluation platform configuration.
func Table1(cfg Config) *Table {
	sys := emogi.V100PCIe3(cfg.Scale)
	t := &Table{
		Title:  "Table 1: evaluation system configuration (simulated)",
		Header: []string{"category", "specification"},
	}
	ts := sys.GPU.Tiers
	hbm, dram := ts.HBM(), ts.DRAM()
	t.AddRow("GPU", sys.GPU.Name)
	t.AddRow("GPU memory", fmt.Sprintf("%d bytes (1:1000 of 16GB at scale %.2g)", hbm.CapacityBytes, cfg.Scale))
	t.AddRow("Host memory", fmt.Sprintf("%d bytes, %s", dram.CapacityBytes, dram.Mem.Name))
	t.AddRow("Interconnect", dram.Link.Name)
	t.AddRow("Memcpy peak", gb(dram.Link.MemcpyPeak())+" GB/s")
	t.AddRow("PCIe RTT", dram.Link.RTT.String())
	t.AddRow("Effective tags", fmt.Sprintf("%d", dram.Link.MaxTags))
	return t
}

// Table2 inventories the datasets (paper Table 2).
func Table2(ds *Datasets) *Table {
	t := &Table{
		Title:  "Table 2: graph datasets (scaled analogs)",
		Header: []string{"sym", "|V|", "|E|", "|E| MB (8B)", "|w| MB", "avg deg", "directed"},
	}
	for _, sym := range AllSyms() {
		g := ds.Get(sym)
		row := graph.Table2Row(g)
		t.AddRow(sym,
			fmt.Sprintf("%d", row.Vertices),
			fmt.Sprintf("%d", row.Edges),
			fnum(float64(row.EdgeBytes)/1e6),
			fnum(float64(row.WeightBytes)/1e6),
			fnum(row.AvgDegree),
			fmt.Sprintf("%v", row.Directed))
	}
	return t
}

// Figure5 reports the PCIe read request size distribution during BFS for
// the Naive, Merged, and Merged+Aligned implementations (paper Figure 5).
func Figure5(sweep *BFSSweep) *Table {
	t := &Table{
		Title:  "Figure 5: PCIe read request size distribution in BFS",
		Header: []string{"graph", "system", "32B", "64B", "96B", "128B"},
	}
	for _, sym := range AllSyms() {
		for _, system := range []string{"Naive", "Merged", "Merged+Aligned"} {
			mon := sweep.Cell(sym, system).Monitor
			total := float64(mon.Requests)
			row := []string{sym, system}
			for _, size := range []int64{32, 64, 96, 128} {
				row = append(row, pct(float64(mon.BySize[size])/total))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Figure6 samples each graph's edge-count CDF over vertex degree (paper
// Figure 6), on the paper's 0..96 axis.
func Figure6(ds *Datasets) *Table {
	points := []int64{0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96}
	header := []string{"graph"}
	for _, p := range points {
		header = append(header, fmt.Sprintf("d<=%d", p))
	}
	t := &Table{Title: "Figure 6: number-of-edges CDF vs vertex degree", Header: header}
	for _, sym := range AllSyms() {
		cdf := graph.DegreeCDF(ds.Get(sym))
		row := []string{sym}
		for _, v := range cdf.Sample(points) {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure7 reports total PCIe request counts during BFS per implementation
// (paper Figure 7).
func Figure7(sweep *BFSSweep) *Table {
	t := &Table{
		Title:  "Figure 7: total PCIe requests in BFS",
		Header: []string{"graph", "Naive", "Merged", "Merged+Aligned", "merge cut", "align cut"},
	}
	for _, sym := range AllSyms() {
		n := sweep.Cell(sym, "Naive").Monitor.Requests
		m := sweep.Cell(sym, "Merged").Monitor.Requests
		a := sweep.Cell(sym, "Merged+Aligned").Monitor.Requests
		t.AddRow(sym,
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", a),
			pct(1-float64(m)/float64(n)),
			pct(1-float64(a)/float64(m)))
	}
	t.Notes = append(t.Notes,
		"paper: merge cuts requests by up to 83.3%, alignment by up to a further 28.8%")
	return t
}

// Figure8 reports the average PCIe bandwidth achieved during BFS (paper
// Figure 8).
func Figure8(sweep *BFSSweep) *Table {
	t := &Table{
		Title:  "Figure 8: average PCIe bandwidth in BFS (GB/s)",
		Header: []string{"graph", "UVM", "Naive", "Merged", "Merged+Aligned"},
	}
	for _, sym := range AllSyms() {
		row := []string{sym}
		for _, system := range SystemNames {
			row = append(row, gb(sweep.Cell(sym, system).MeanBandwidth()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "cudaMemcpy peak: "+gb(sweep.MemcpyPeak)+" GB/s")
	return t
}

// Figure9 reports BFS performance normalized to the UVM baseline (paper
// Figure 9).
func Figure9(sweep *BFSSweep) *Table {
	t := &Table{
		Title:  "Figure 9: BFS performance normalized to UVM",
		Header: []string{"graph", "UVM", "Naive", "Merged", "Merged+Aligned"},
	}
	var avg = map[string]float64{}
	for _, sym := range AllSyms() {
		uvm := sweep.Cell(sym, "UVM")
		row := []string{sym}
		for _, system := range SystemNames {
			sp := emogi.Speedup(uvm, sweep.Cell(sym, system))
			avg[system] += sp
			row = append(row, fnum(sp))
		}
		t.AddRow(row...)
	}
	n := float64(len(AllSyms()))
	t.AddRow("Avg", fnum(avg["UVM"]/n), fnum(avg["Naive"]/n),
		fnum(avg["Merged"]/n), fnum(avg["Merged+Aligned"]/n))
	t.Notes = append(t.Notes, "paper averages: Naive 0.73x, Merged 3.24x, Merged+Aligned 3.56x")
	return t
}

// Figure10 reports I/O read amplification in BFS: bytes moved over the
// interconnect divided by the BFS dataset size (paper Figure 10).
func Figure10(sweep *BFSSweep, ds *Datasets) *Table {
	t := &Table{
		Title:  "Figure 10: I/O read amplification in BFS (data moved / dataset size)",
		Header: []string{"graph", "UVM", "EMOGI"},
	}
	for _, sym := range AllSyms() {
		dataset := ds.Get(sym).EdgeListBytes(8)
		uvm := sweep.Cell(sym, "UVM").IOAmplification(dataset)
		em := sweep.Cell(sym, "Merged+Aligned").IOAmplification(dataset)
		t.AddRow(sym, fnum(uvm), fnum(em))
	}
	t.Notes = append(t.Notes,
		"paper: UVM up to 5.16x (FS), ML 2.28x, SK 1.14x; EMOGI never above 1.31x")
	return t
}

// Figure11 reports UVM vs EMOGI across all three applications (paper
// Figure 11).
func Figure11(sweep *AppSweep) *Table {
	t := &Table{
		Title:  "Figure 11: EMOGI speedup over UVM by application",
		Header: []string{"app", "graph", "UVM ms", "EMOGI ms", "speedup"},
	}
	var total float64
	var count int
	for _, app := range PaperApps {
		for _, sym := range AppGraphs(app) {
			uvm := sweep.Cell(app, sym, "UVM")
			em := sweep.Cell(app, sym, "EMOGI")
			sp := emogi.Speedup(uvm, em)
			total += sp
			count++
			t.AddRow(appLabel(app), sym,
				fnum(uvm.MeanElapsed.Seconds()*1e3),
				fnum(em.MeanElapsed.Seconds()*1e3),
				fnum(sp))
		}
	}
	t.AddRow("Avg", "", "", "", fnum(total/float64(count)))
	t.Notes = append(t.Notes, "paper average: 2.92x; CC shows the lowest speedups")
	return t
}

// Figure12 reports PCIe 3.0 vs 4.0 scaling on the A100 platform (paper
// Figure 12): every cell normalized to UVM + PCIe 3.0 for that app/graph.
func Figure12(ds *Datasets) (*Table, error) {
	gen3, err := RunAppSweep(ds, emogi.A100PCIe3)
	if err != nil {
		return nil, err
	}
	gen4, err := RunAppSweep(ds, emogi.A100PCIe4)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12: PCIe 3.0 vs 4.0 on A100 (normalized to UVM+PCIe3.0)",
		Header: []string{"app", "graph", "UVM+3.0", "EMOGI+3.0", "UVM+4.0", "EMOGI+4.0"},
	}
	var uvmScale, emScale float64
	var count int
	for _, app := range PaperApps {
		for _, sym := range AppGraphs(app) {
			base := gen3.Cell(app, sym, "UVM")
			norm := func(s *emogi.RunSummary) float64 { return emogi.Speedup(base, s) }
			u3 := norm(gen3.Cell(app, sym, "UVM"))
			e3 := norm(gen3.Cell(app, sym, "EMOGI"))
			u4 := norm(gen4.Cell(app, sym, "UVM"))
			e4 := norm(gen4.Cell(app, sym, "EMOGI"))
			uvmScale += u4 / u3
			emScale += e4 / e3
			count++
			t.AddRow(appLabel(app), sym, fnum(u3), fnum(e3), fnum(u4), fnum(e4))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"link scaling Gen3->Gen4: UVM %.2fx, EMOGI %.2fx (paper: 1.53x and 1.9x)",
		uvmScale/float64(count), emScale/float64(count)))
	return t, nil
}
