package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/quick from the current code")

// TestQuickResults is the exact gate on the simulated evaluation: it
// regenerates what `emogi-bench -quick -o results/quick -csv` writes and
// diffs it byte for byte against the committed directory. A change that
// moves a simulated number re-records the files with
//
//	go test ./internal/bench -run TestQuickResults -update
//
// and names the moved files in its change notes.
func TestQuickResults(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the quick evaluation (about 30 s)")
	}
	t.Parallel()
	want := filepath.Join("..", "..", "results", "quick")
	dir := t.TempDir()
	if *update {
		if err := os.RemoveAll(want); err != nil {
			t.Fatal(err)
		}
		dir = want
	}
	var werr error
	err := Generate(NewDatasets(QuickConfig()),
		func(id string) bool { return !strings.HasPrefix(id, "ablation-") },
		DefaultReorderWindow, t.Logf,
		func(id string, tb *Table) {
			if werr == nil {
				werr = WriteTable(dir, id, tb, true, false)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if werr != nil {
		t.Fatal(werr)
	}
	if *update {
		return
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadDir(want)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	names := map[string]bool{}
	for _, e := range committed {
		names[e.Name()] = true
	}
	for _, e := range got {
		name := e.Name()
		if !names[name] {
			t.Errorf("%s: generated but not committed", name)
			continue
		}
		delete(names, name)
		a, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the committed copy:\n%s", name, firstDiff(a, b))
		}
	}
	for name := range names {
		t.Errorf("%s: committed but no longer generated", name)
	}
}

// firstDiff renders the first line on which a and b differ.
func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return "line " + strconv.Itoa(i+1) + ":\n  committed: " + x + "\n  generated: " + y
		}
	}
	return "(trailing bytes)"
}
