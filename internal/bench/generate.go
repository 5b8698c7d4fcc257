package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	emogi "repro"
)

// DefaultReorderWindow is the reorder table's window in 32B sectors when
// no other size is asked for.
const DefaultReorderWindow = 32

// Generate runs the selected evaluation tables in the harness's fixed order
// and hands each one to emit as soon as it is ready. selected reports
// whether a table ID is wanted; reorderWindow sizes the reorder table's
// window in 32B sectors; logf announces each long sweep.
func Generate(ds *Datasets, selected func(id string) bool, reorderWindow int,
	logf func(format string, args ...any), emit func(id string, t *Table)) error {
	var err error
	add := func(id string, run func() (*Table, error)) {
		if err != nil || !selected(id) {
			return
		}
		t, rerr := run()
		if rerr != nil {
			err = fmt.Errorf("%s: %w", id, rerr)
			return
		}
		emit(id, t)
	}
	cfg := ds.Config()
	add("table1", func() (*Table, error) { return Table1(cfg), nil })
	add("table2", func() (*Table, error) { return Table2(ds), nil })
	add("fig3", func() (*Table, error) { return Figure3(cfg) })
	add("fig4", func() (*Table, error) { return Figure4(cfg) })
	add("fig6", func() (*Table, error) { return Figure6(ds), nil })

	if err == nil && (selected("fig5") || selected("fig7") || selected("fig8") || selected("fig9") || selected("fig10")) {
		logf("running BFS case-study sweep (6 graphs x 4 systems x %d sources)...", cfg.Sources)
		sweep, serr := RunBFSSweep(ds)
		if serr != nil {
			return fmt.Errorf("BFS sweep: %w", serr)
		}
		add("fig5", func() (*Table, error) { return Figure5(sweep), nil })
		add("fig7", func() (*Table, error) { return Figure7(sweep), nil })
		add("fig8", func() (*Table, error) { return Figure8(sweep), nil })
		add("fig9", func() (*Table, error) { return Figure9(sweep), nil })
		add("fig10", func() (*Table, error) { return Figure10(sweep, ds), nil })
	}

	add("fig11", func() (*Table, error) {
		logf("running all-applications sweep on V100...")
		sweep, err := RunAppSweep(ds, emogi.V100PCIe3)
		if err != nil {
			return nil, err
		}
		return Figure11(sweep), nil
	})
	add("fig12", func() (*Table, error) {
		logf("running PCIe 3.0 vs 4.0 sweeps on A100...")
		return Figure12(ds)
	})
	add("claims", func() (*Table, error) {
		logf("running the paper-claims check...")
		return Claims(ds)
	})
	add("table3", func() (*Table, error) {
		logf("running prior-work comparison (HALO, Subway)...")
		return Table3(ds)
	})
	add("transport", func() (*Table, error) {
		logf("running transport-policy comparison (static-zc, static-uvm, adaptive)...")
		return TransportComparison(ds, AllSyms(), []string{"bfs", "sssp"})
	})
	add("paging", func() (*Table, error) {
		logf("running UVM paging-model comparison (cpu fault handler vs gpu-driven)...")
		return PagingComparison(ds, AllSyms(), []string{"bfs", "sssp"})
	})
	add("reorder", func() (*Table, error) {
		logf("running reorder-window comparison (off vs %d sectors)...", reorderWindow)
		return ReorderComparison(ds, AllSyms(), []string{"bfs", "sssp"}, reorderWindow)
	})

	for _, ab := range []struct {
		id  string
		run func(*Datasets) (*Table, error)
	}{
		{"ablation-uvm", AblationUVMBlock},
		{"ablation-worker", AblationWorkerSize},
		{"ablation-compress", AblationCompression},
		{"ablation-link", AblationLink},
		{"ablation-edgecentric", AblationEdgeCentric},
		{"ablation-directionopt", AblationDirectionOpt},
		{"ablation-thrash", AblationThrash},
	} {
		add(ab.id, func() (*Table, error) { return ab.run(ds) })
	}
	return err
}

// WriteTable writes t to dir/<id>.txt, plus dir/<id>.csv and dir/<id>.json
// when asked. The files hold only simulated values, so identical flags
// write identical bytes.
func WriteTable(dir, id string, t *Table, csv, jsonOut bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string][]byte{".txt": []byte(t.Render())}
	if csv {
		files[".csv"] = []byte(t.RenderCSV())
	}
	if jsonOut {
		data, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return err
		}
		files[".json"] = append(data, '\n')
	}
	for ext, data := range files {
		if err := os.WriteFile(filepath.Join(dir, id+ext), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
