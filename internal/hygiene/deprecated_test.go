// Package hygiene holds repo-wide source checks that gate CI: pure-Go
// guards that don't need external linters. They run as ordinary tests so
// `go test ./...` — the tier-1 gate — enforces them on every platform.
package hygiene

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// deprecatedMarker is Go's deprecation paragraph opener, spelled in two
// parts so that a repo-wide grep for the marker finds no .go file at all.
const deprecatedMarker = "Deprecated" + ":"

// TestNoInternalDeprecatedCallers keeps one way to do each thing: no
// non-test .go file in the repo may carry a deprecatedMarker comment. An
// API that is superseded is deleted and its callers moved to the
// replacement in the same change, so no deprecated API — and therefore no
// internal caller of one — can exist.
func TestNoInternalDeprecatedCallers(t *testing.T) {
	root := repoRoot(t)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && skipDir(name) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		checkFile(t, path, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkFile reports every line of the file whose comment text opens with
// the Go deprecation marker.
func checkFile(t *testing.T, path, rel string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", rel, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(line, "//")), deprecatedMarker) {
			t.Errorf("%s:%d: Deprecated marker — delete the API and move its callers to the replacement", rel, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan %s: %v", rel, err)
	}
}

// skipDir reports whether a repository walk skips the named directory:
// hidden directories, test fixtures and recorded results hold no sources.
func skipDir(name string) bool {
	return strings.HasPrefix(name, ".") || name == "testdata" || name == "results"
}

// repoRoot locates the module root by walking up to go.mod.

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}
