package bench

import (
	"context"
	"fmt"
	"time"

	emogi "repro"
)

// The transport comparison pits the pluggable transport policies against
// each other on the scaled V100: both static substrates (the paper's
// zero-copy and UVM configurations, now expressed as static policies) and
// the adaptive per-partition policy. Every run is cold — UVM residency and
// staged segments evicted first — so each policy pays its own warm-up, the
// regime the adaptive cost model is built for.

// TransportPolicyNames returns the compared policy names in table order.
func TransportPolicyNames() []string { return []string{"static-zc", "static-uvm", "adaptive"} }

// TransportCell is one (graph, algo) measurement: the mean cold simulated
// time under each policy, averaged over the harness sources.
type TransportCell struct {
	Graph   string
	Algo    string
	Elapsed map[string]time.Duration
}

// BestStatic returns the faster of the two static policies.
func (c *TransportCell) BestStatic() time.Duration {
	zc, uvm := c.Elapsed["static-zc"], c.Elapsed["static-uvm"]
	if uvm < zc {
		return uvm
	}
	return zc
}

// RunTransportComparison measures every (graph, algo) cell under all
// transport policies with the given kernel variant. Each policy gets a fresh
// system so one policy's residency never leaks into another's measurement.
func RunTransportComparison(ds *Datasets, syms, algos []string, variant emogi.Variant) ([]TransportCell, error) {
	cfg := ds.Config()
	var cells []TransportCell
	for _, sym := range syms {
		g := ds.Get(sym)
		sources := ds.Sources(sym)
		for _, algo := range algos {
			cell := TransportCell{Graph: sym, Algo: algo, Elapsed: make(map[string]time.Duration)}
			for _, pname := range TransportPolicyNames() {
				pol, err := emogi.PolicyByName(pname)
				if err != nil {
					return nil, err
				}
				sys := cfg.System(emogi.V100PCIe3(cfg.Scale))
				dg, err := sys.Load(g, emogi.WithTransportPolicy(pol))
				if err != nil {
					return nil, fmt.Errorf("bench: loading %s for %s: %w", sym, pname, err)
				}
				var total time.Duration
				for _, src := range sources {
					res, err := sys.Do(context.Background(),
						emogi.Request{Graph: dg, Algo: algo, Src: src, Variant: variant, Cold: true})
					if err != nil {
						return nil, fmt.Errorf("bench: %s %s/%s: %w", algo, sym, pname, err)
					}
					total += res.Elapsed
				}
				cell.Elapsed[pname] = total / time.Duration(len(sources))
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// TransportComparison renders the comparison with the Naive kernel variant
// as a table: one row per (graph, algo), the per-policy times, and the
// adaptive policy's speedup over the better static choice (>1.0 means
// adaptive wins even against an oracle that picked the right static
// transport per graph).
func TransportComparison(ds *Datasets, syms, algos []string) (*Table, error) {
	cells, err := RunTransportComparison(ds, syms, algos, emogi.Naive)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Transport policies: static zero-copy vs static UVM vs adaptive (cold, V100)",
		Header: []string{"graph", "algo", "static-zc ms", "static-uvm ms", "adaptive ms", "vs best static"},
	}
	for i := range cells {
		c := &cells[i]
		t.AddRow(c.Graph, c.Algo,
			fnum(c.Elapsed["static-zc"].Seconds()*1e3),
			fnum(c.Elapsed["static-uvm"].Seconds()*1e3),
			fnum(c.Elapsed["adaptive"].Seconds()*1e3),
			fnum(c.BestStatic().Seconds()/c.Elapsed["adaptive"].Seconds()))
	}
	t.Notes = append(t.Notes,
		"every run is cold: UVM pages and staged segments evicted before each source",
		"vs best static > 1.0 means adaptive beats an oracle static choice per graph")
	return t, nil
}
