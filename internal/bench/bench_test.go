package bench

import (
	"fmt"
	"strings"
	"testing"

	emogi "repro"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{Scale: 0.02, Seed: 42, Sources: 1}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "test",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("x", "y")
	tb.AddRow("long", "z")
	tb.Notes = append(tb.Notes, "a note")
	out := tb.Render()
	for _, want := range []string{"== test ==", "a     bb", "long  z", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if fnum(0) != "0" || fnum(123.4) != "123" || fnum(12.34) != "12.3" || fnum(1.234) != "1.23" {
		t.Errorf("fnum formats wrong: %s %s %s %s", fnum(0), fnum(123.4), fnum(12.34), fnum(1.234))
	}
	if gb(12.3e9) != "12.30" {
		t.Errorf("gb = %s", gb(12.3e9))
	}
	if pct(0.5) != "50.0%" {
		t.Errorf("pct = %s", pct(0.5))
	}
}

func TestDatasetsCache(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	a := ds.Get("GK")
	b := ds.Get("GK")
	if a != b {
		t.Errorf("dataset not cached")
	}
	if len(ds.Sources("GK")) != 1 {
		t.Errorf("sources count wrong")
	}
}

func TestTable1And2(t *testing.T) {
	t.Parallel()
	cfg := tinyConfig()
	ds := NewDatasets(cfg)
	t1 := Table1(cfg)
	if len(t1.Rows) < 5 {
		t.Errorf("Table1 too short")
	}
	t2 := Table2(ds)
	if len(t2.Rows) != 6 {
		t.Errorf("Table2 rows = %d, want 6", len(t2.Rows))
	}
	out := t2.Render()
	for _, sym := range AllSyms() {
		if !strings.Contains(out, sym) {
			t.Errorf("Table2 missing %s", sym)
		}
	}
}

func TestFigure3And4(t *testing.T) {
	t.Parallel()
	cfg := tinyConfig()
	f3, err := Figure3(cfg)
	if err != nil {
		t.Fatalf("Figure3: %v", err)
	}
	if len(f3.Rows) != 3 {
		t.Errorf("Figure3 rows = %d, want 3", len(f3.Rows))
	}
	f4, err := Figure4(cfg)
	if err != nil {
		t.Fatalf("Figure4: %v", err)
	}
	if len(f4.Rows) != 4 {
		t.Errorf("Figure4 rows = %d, want 4", len(f4.Rows))
	}
	// Strided must be mostly 32B; merged+aligned mostly 128B.
	if !strings.Contains(f3.Rows[0][2], "100") {
		t.Errorf("strided 32B share should be ~100%%, row: %v", f3.Rows[0])
	}
}

func TestFigure6(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	f6 := Figure6(ds)
	if len(f6.Rows) != 6 {
		t.Fatalf("Figure6 rows = %d", len(f6.Rows))
	}
	// Each row's CDF samples must be non-decreasing.
	for _, row := range f6.Rows {
		prev := -1.0
		for _, cell := range row[1:] {
			var v float64
			if _, err := fmt.Sscanf(cell, "%f", &v); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			if v < prev {
				t.Errorf("%s: CDF not monotone", row[0])
			}
			prev = v
		}
	}
}

func TestBFSSweepAndFigures(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	sweep, err := RunBFSSweep(ds)
	if err != nil {
		t.Fatalf("RunBFSSweep: %v", err)
	}
	for _, sym := range AllSyms() {
		for _, system := range SystemNames {
			if sweep.Cell(sym, system) == nil {
				t.Fatalf("missing cell %s/%s", sym, system)
			}
		}
	}
	for name, tb := range map[string]*Table{
		"Figure5":  Figure5(sweep),
		"Figure7":  Figure7(sweep),
		"Figure8":  Figure8(sweep),
		"Figure9":  Figure9(sweep),
		"Figure10": Figure10(sweep, ds),
	} {
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", name)
		}
		if tb.Render() == "" {
			t.Errorf("%s renders empty", name)
		}
	}
}

func TestAppSweepAndFigure11(t *testing.T) {
	t.Parallel()
	ds := NewDatasets(tinyConfig())
	sweep, err := RunAppSweep(ds, emogi.V100PCIe3)
	if err != nil {
		t.Fatalf("RunAppSweep: %v", err)
	}
	f11 := Figure11(sweep)
	// SSSP 6 + BFS 6 + CC 4 + average row = 17.
	if len(f11.Rows) != 17 {
		t.Errorf("Figure11 rows = %d, want 17", len(f11.Rows))
	}
}

func TestSystemConfigUnknown(t *testing.T) {
	if _, _, err := systemConfig("nope"); err == nil {
		t.Errorf("unknown system accepted")
	}
}

func TestRenderCSV(t *testing.T) {
	tb := &Table{Header: []string{"a", "b"}}
	tb.AddRow("1", "x,y")
	tb.AddRow(`has"quote`, "plain")
	got := tb.RenderCSV()
	want := "a,b\n1,\"x,y\"\n\"has\"\"quote\",plain\n"
	if got != want {
		t.Errorf("RenderCSV = %q, want %q", got, want)
	}
}

func TestConfigPresets(t *testing.T) {
	q := QuickConfig()
	if q.Scale >= 1 {
		t.Errorf("QuickConfig should be smaller than the full-size scale 1")
	}

	if q.Sources < 1 {
		t.Errorf("QuickConfig needs at least one source")
	}
}
