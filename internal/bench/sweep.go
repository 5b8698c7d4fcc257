package bench

import (
	"fmt"
	"strings"

	emogi "repro"
)

// SystemNames are the four compared implementations of §5.1.2, in figure
// order.
var SystemNames = []string{"UVM", "Naive", "Merged", "Merged+Aligned"}

// systemConfig maps a compared implementation name to its transport and
// kernel variant.
func systemConfig(name string) (emogi.Transport, emogi.Variant, error) {
	switch name {
	case "UVM":
		// The optimized UVM baseline uses the same warp-per-vertex kernel;
		// its performance is dominated by page migration, not coalescing.
		return emogi.UVM, emogi.Merged, nil
	case "Naive":
		return emogi.ZeroCopy, emogi.Naive, nil
	case "Merged":
		return emogi.ZeroCopy, emogi.Merged, nil
	case "Merged+Aligned":
		return emogi.ZeroCopy, emogi.MergedAligned, nil
	default:
		return 0, 0, fmt.Errorf("bench: unknown system %q", name)
	}
}

// BFSSweep holds the full §5.3 case study: BFS on every graph under every
// compared system, sharing one set of sources per graph. Figures 5, 7, 8,
// 9, and 10 are all views of this sweep.
type BFSSweep struct {
	MemcpyPeak float64
	cells      map[string]map[string]*emogi.RunSummary
}

// Cell returns the (graph, system) measurement.
func (s *BFSSweep) Cell(graphSym, system string) *emogi.RunSummary {
	return s.cells[graphSym][system]
}

// RunBFSSweep executes the case study. Each cell runs on a fresh simulated
// V100 so its traffic monitor is isolated.
func RunBFSSweep(ds *Datasets) (*BFSSweep, error) {
	cfg := ds.Config()
	sweep := &BFSSweep{
		MemcpyPeak: emogi.V100PCIe3(cfg.Scale).GPU.Tiers.DRAM().Link.MemcpyPeak(),
		cells:      make(map[string]map[string]*emogi.RunSummary),
	}
	for _, sym := range AllSyms() {
		g := ds.Get(sym)
		sources := ds.Sources(sym)
		sweep.cells[sym] = make(map[string]*emogi.RunSummary)
		for _, name := range SystemNames {
			transport, variant, err := systemConfig(name)
			if err != nil {
				return nil, err
			}
			sys := cfg.System(emogi.V100PCIe3(cfg.Scale))
			dg, err := sys.Load(g, emogi.WithTransportPolicy(emogi.StaticPolicy(transport)))
			if err != nil {
				return nil, fmt.Errorf("bench: loading %s for %s: %w", sym, name, err)
			}
			sum, err := sys.RunMany(dg, "bfs", sources, variant)
			if err != nil {
				return nil, fmt.Errorf("bench: BFS %s/%s: %w", sym, name, err)
			}
			sweep.cells[sym][name] = sum
		}
	}
	return sweep, nil
}

// PaperApps are the paper's three applications by registry name, in the
// Figure 11 order.
var PaperApps = []string{"sssp", "bfs", "cc"}

// appLabel is the printed name of an application: the paper's
// abbreviation ("BFS", "SSSP", "CC").
func appLabel(app string) string { return strings.ToUpper(app) }

// AppSweep holds the all-applications comparison of §5.4 (and §5.5 when
// run on A100 configs): UVM vs fully-optimized EMOGI for SSSP, BFS, CC.
type AppSweep struct {
	cells map[string]*emogi.RunSummary
}

func appKey(app, graphSym, system string) string {
	return app + "/" + graphSym + "/" + system
}

// Cell returns the (app, graph, system) measurement, or nil if that
// combination was excluded (directed graphs for CC).
func (s *AppSweep) Cell(app, graphSym, system string) *emogi.RunSummary {
	return s.cells[appKey(app, graphSym, system)]
}

// AppGraphs returns the datasets an application runs on: CC excludes the
// directed SK and UK5 (§5.4).
func AppGraphs(app string) []string {
	if app == "cc" {
		return UndirectedSyms()
	}
	return AllSyms()
}

// RunAppSweep executes the §5.4 comparison on the given platform
// configuration builder (e.g. emogi.V100PCIe3 or emogi.A100PCIe4).
func RunAppSweep(ds *Datasets, platform func(float64) emogi.SystemConfig) (*AppSweep, error) {
	cfg := ds.Config()
	sweep := &AppSweep{cells: make(map[string]*emogi.RunSummary)}
	systems := []struct {
		name      string
		transport emogi.Transport
		variant   emogi.Variant
	}{
		{"UVM", emogi.UVM, emogi.Merged},
		{"EMOGI", emogi.ZeroCopy, emogi.MergedAligned},
	}
	for _, app := range PaperApps {
		for _, sym := range AppGraphs(app) {
			g := ds.Get(sym)
			sources := ds.Sources(sym)
			for _, sc := range systems {
				sys := cfg.System(platform(cfg.Scale))
				dg, err := sys.Load(g, emogi.WithTransportPolicy(emogi.StaticPolicy(sc.transport)))
				if err != nil {
					return nil, fmt.Errorf("bench: loading %s: %w", sym, err)
				}
				sum, err := sys.RunMany(dg, app, sources, sc.variant)
				if err != nil {
					return nil, fmt.Errorf("bench: %s %s/%s: %w", appLabel(app), sym, sc.name, err)
				}
				sweep.cells[appKey(app, sym, sc.name)] = sum
			}
		}
	}
	return sweep, nil
}
