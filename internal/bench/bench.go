// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§5), each producing the same rows or series
// the paper reports, rendered as text tables. cmd/emogi-bench drives the
// full set; bench_test.go at the repository root exposes each runner as a
// testing.B benchmark.
//
// Runners are deterministic for a given Config. Absolute times come from
// the calibrated simulator; the claims under test are the *shapes* — who
// wins, by what factor, where the crossovers are — as recorded against the
// paper's numbers in EXPERIMENTS.md.
package bench

import (
	"fmt"

	emogi "repro"
	"repro/internal/gpu"
	"repro/internal/graph"
)

// Config controls experiment size.
type Config struct {
	// Scale is the dataset scale factor on top of the standard 1:1000
	// reduction (1.0 = the repository's full-size experiments).
	Scale float64
	// Seed makes every generator and source choice deterministic.
	Seed int64
	// Sources is the number of BFS/SSSP source vertices averaged per
	// measurement (the paper uses 64; the default trades that for runtime).
	Sources int
	// Workers is the per-launch host worker count passed to every system
	// the harness builds (0 = GOMAXPROCS, 1 = serial). Simulated results
	// are identical for every value; only wall-clock time changes.
	Workers int
	// Telemetry, when non-nil, is attached to every system the harness
	// builds, so one exporter observes the whole evaluation.
	Telemetry emogi.Telemetry
	// TierStack, when non-empty, is the named memory-tier stack applied to
	// every system the harness builds ("2tier", "3tier-cxl" or an alias);
	// empty keeps each platform's native two-tier stack.
	TierStack string
	// GPUDrivenPaging selects the GPUVM-style UVM paging model on every
	// system the harness builds.
	GPUDrivenPaging bool
}

// QuickConfig returns a reduced configuration for smoke tests and
// testing.B benchmarks.
func QuickConfig() Config {
	return Config{Scale: 0.1, Seed: 42, Sources: 2}
}

// Datasets lazily builds and caches the six Table 2 graphs, in both 8-byte
// and 4-byte edge-element flavors of the same topology.
type Datasets struct {
	cfg    Config
	graphs map[string]*graph.CSR
}

// NewDatasets creates an empty cache for the given configuration.
func NewDatasets(cfg Config) *Datasets {
	return &Datasets{cfg: cfg, graphs: make(map[string]*graph.CSR)}
}

// Config returns the dataset configuration.
func (d *Datasets) Config() Config { return d.cfg }

// System builds a simulated machine for the given platform configuration,
// applying the harness worker count.
func (c Config) System(sc emogi.SystemConfig) *emogi.System {
	sc.Workers = c.Workers
	sc.Telemetry = c.Telemetry
	if c.TierStack != "" {
		var err error
		if sc, err = emogi.ApplyTierStack(sc, c.TierStack); err != nil {
			panic(err) // names are validated at flag-parse time
		}
	}
	sc.GPU.GPUDrivenPaging = c.GPUDrivenPaging
	return emogi.NewSystem(sc)
}

// Device builds a raw simulated device from a gpu configuration, applying
// the harness worker count and telemetry — for runners (toy figures,
// ablations, prior-work baselines) that bypass the System wrapper.
func (c Config) Device(gc gpu.Config) *gpu.Device {
	if c.Workers != 0 {
		gc.Workers = c.Workers
	}
	dev := gpu.NewDevice(gc)
	if c.Telemetry != nil {
		dev.SetTelemetry(c.Telemetry)
	}
	return dev
}

// Get returns the named dataset, building it on first use.
func (d *Datasets) Get(sym string) *graph.CSR {
	if g, ok := d.graphs[sym]; ok {
		return g
	}
	g, err := emogi.BuildDataset(sym, d.cfg.Scale, d.cfg.Seed)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	d.graphs[sym] = g
	return g
}

// Sources returns the measurement sources for a dataset.
func (d *Datasets) Sources(sym string) []int {
	return emogi.PickSources(d.Get(sym), d.cfg.Sources, d.cfg.Seed)
}

// AllSyms returns the dataset symbols in Table 2 order.
func AllSyms() []string { return []string{"GK", "GU", "FS", "ML", "SK", "UK5"} }

// UndirectedSyms returns the datasets CC runs on.
func UndirectedSyms() []string { return []string{"GK", "GU", "FS", "ML"} }

// Table is a rendered experiment result: a title, a header row, and data
// rows, formatted as aligned text by Render.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one data row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := "== " + t.Title + " ==\n"
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			for len(c) < widths[i] {
				c = c + " "
			}
			s += c
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, row := range t.Rows {
		out += line(row)
	}
	for _, n := range t.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// fnum formats a float compactly for table cells.
func fnum(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// gb formats bytes/sec as GB/s.
func gb(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f", bytesPerSec/1e9)
}

// pct formats a fraction as a percentage.
func pct(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// RenderCSV formats the table as RFC-4180-ish CSV (quotes only where
// needed), for downstream plotting.
func (t *Table) RenderCSV() string {
	var b []byte
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b = append(b, ',')
			}
			quote := false
			for _, r := range c {
				if r == ',' || r == '"' || r == '\n' {
					quote = true
					break
				}
			}
			if quote {
				b = append(b, '"')
				for _, r := range c {
					if r == '"' {
						b = append(b, '"', '"')
					} else {
						b = append(b, string(r)...)
					}
				}
				b = append(b, '"')
			} else {
				b = append(b, c...)
			}
		}
		b = append(b, '\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return string(b)
}
