package bench

import (
	"context"
	"fmt"
	"time"

	emogi "repro"
)

// The reorder comparison measures what the coalescer's IARU-style reorder
// window (internal/gpu/reorder.go, DESIGN.md §17) buys on the Table 2
// cells: off-device request count and mean request size with the stage off
// versus on, the merged-request attribution, and the simulated runtime
// delta. Traversal output is bit-identical in every cell — the equivalence
// suite pins that — so the comparison is purely about request shape and
// time.

// ReorderCell is one (graph, algo) measurement: request shape and runtime
// with the reorder window off and on, summed over the harness sources.
type ReorderCell struct {
	Graph string
	Algo  string

	OffElapsed, OnElapsed   time.Duration
	OffRequests, OnRequests uint64
	OffPayload, OnPayload   uint64
	Merged                  uint64
}

// MeanOff returns the mean off-device request size in bytes with the
// stage off (0 when the cell issued no requests).
func (c *ReorderCell) MeanOff() float64 { return meanSize(c.OffPayload, c.OffRequests) }

// MeanOn is MeanOff with the stage on.
func (c *ReorderCell) MeanOn() float64 { return meanSize(c.OnPayload, c.OnRequests) }

func meanSize(payload, requests uint64) float64 {
	if requests == 0 {
		return 0
	}
	return float64(payload) / float64(requests)
}

// RunReorderComparison measures every (graph, algo) cell with the reorder
// window off and at the given size. Each leg gets a fresh system so device
// state never leaks between configurations.
func RunReorderComparison(ds *Datasets, syms, algos []string, window int) ([]ReorderCell, error) {
	cfg := ds.Config()
	var cells []ReorderCell
	for _, sym := range syms {
		g := ds.Get(sym)
		sources := ds.Sources(sym)
		for _, algo := range algos {
			cell := ReorderCell{Graph: sym, Algo: algo}
			for _, w := range []int{0, window} {
				sc := emogi.V100PCIe3(cfg.Scale)
				sc.GPU.ReorderWindow = w
				sys := cfg.System(sc)
				dg, err := sys.Load(g)
				if err != nil {
					return nil, fmt.Errorf("bench: loading %s: %w", sym, err)
				}
				var elapsed time.Duration
				var requests, payload, merged uint64
				for _, src := range sources {
					res, err := sys.Do(context.Background(),
						emogi.Request{Graph: dg, Algo: algo, Src: src})
					if err != nil {
						return nil, fmt.Errorf("bench: %s %s/w%d: %w", algo, sym, w, err)
					}
					elapsed += res.Elapsed
					requests += res.Stats.PCIeRequests
					payload += res.Stats.PCIePayloadBytes
					merged += res.Stats.ReorderMerged
				}
				if w == 0 {
					cell.OffElapsed, cell.OffRequests, cell.OffPayload = elapsed, requests, payload
				} else {
					cell.OnElapsed, cell.OnRequests, cell.OnPayload = elapsed, requests, payload
					cell.Merged = merged
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// ReorderComparison renders the off-vs-on comparison as a table: per-cell
// request counts, mean request sizes, merged-request attribution, and the
// simulated runtime delta (negative = the reorder window made the run
// faster).
func ReorderComparison(ds *Datasets, syms, algos []string, window int) (*Table, error) {
	cells, err := RunReorderComparison(ds, syms, algos, window)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Reorder window (IARU-style, %d sectors) vs. off — zero-copy request shape and runtime", window),
		Header: []string{"graph", "algo", "reqs off", "reqs on", "merged",
			"mean B off", "mean B on", "time off", "time on", "delta"},
		Notes: []string{
			"Mean request size is PCIe payload bytes over zero-copy requests; traversal",
			"output is bit-identical in every cell (equivalence suite, DESIGN.md §17).",
		},
	}
	for i := range cells {
		c := &cells[i]
		delta := 0.0
		if c.OffElapsed > 0 {
			delta = 100 * (float64(c.OnElapsed) - float64(c.OffElapsed)) / float64(c.OffElapsed)
		}
		t.AddRow(c.Graph, c.Algo,
			fmt.Sprintf("%d", c.OffRequests),
			fmt.Sprintf("%d", c.OnRequests),
			fmt.Sprintf("%d", c.Merged),
			fmt.Sprintf("%.1f", c.MeanOff()),
			fmt.Sprintf("%.1f", c.MeanOn()),
			c.OffElapsed.String(), c.OnElapsed.String(),
			fmt.Sprintf("%+.2f%%", delta))
	}
	return t, nil
}
