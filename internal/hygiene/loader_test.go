package hygiene

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// modulePath is the root module's path; perfbench is repro/perfbench.
const modulePath = "repro"

// repoLoader type-checks the repository's packages from source: module
// packages from their directories, the standard library through
// go/importer's source importer.
type repoLoader struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*loadedPkg
	ifaces []*types.Interface // stdInterfaceSrc's and every interface type the repo uses
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// shared holds the one type-checked copy of the repository that every
// gate in this package reads; type-checking takes most of a gate's time.
var shared struct {
	once sync.Once
	l    *repoLoader
	err  error
}

// loadRepo type-checks every non-test file of the repository (build tags
// honoured) on its first call and returns the same loader after that.
func loadRepo(t *testing.T) *repoLoader {
	t.Helper()
	root := repoRoot(t)
	shared.once.Do(func() { shared.l, shared.err = newRepoLoader(root) })
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.l
}

func newRepoLoader(root string) (*repoLoader, error) {
	fset := token.NewFileSet()
	l := &repoLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*loadedPkg{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		files, err := goFiles(path)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := modulePath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		l.dirs[ip] = path
		return nil
	})
	if err != nil {
		return nil, err
	}
	if l.ifaces, err = l.stdInterfaces(); err != nil {
		return nil, err
	}
	seen := map[types.Type]bool{}
	for _, path := range l.paths() {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 && !seen[tv.Type] {
				seen[tv.Type] = true
				l.ifaces = append(l.ifaces, it)
			}
		}
	}
	return l, nil
}

// goFiles lists the dir's non-test .go files that the default build
// context selects (GOOS/GOARCH suffixes and //go:build lines honoured).
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files, nil
}

func (l *repoLoader) paths() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// position spells pos as a repo-relative file:line:col.
func (l *repoLoader) position(pos token.Pos) string {
	p := l.fset.Position(pos)
	if rel, err := filepath.Rel(l.root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return p.String()
}

// file is the repo-relative name of the file that holds pos.
func (l *repoLoader) file(pos token.Pos) string {
	s := l.position(pos)
	return s[:strings.IndexByte(s, ':')]
}

// Import resolves module packages from source and everything else through
// the standard-library importer.
func (l *repoLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return l.std.Import(path)
}

func (l *repoLoader) load(path string) (*loadedPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p := &loadedPkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	names, err := goFiles(l.dirs[path])
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// internal reports whether the import path is a package under internal/.
func internal(path string) bool {
	return strings.HasPrefix(path, modulePath+"/internal/")
}

// stdInterfaceSrc names the standard-library interfaces whose methods the
// standard library calls on the code's behalf (fmt, errors, sort, heap,
// net/http, encoding/json, flag, io).
const stdInterfaceSrc = `package stdifaces

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer        fmt.Stringer
	goStringer      fmt.GoStringer
	formatter       fmt.Formatter
	errorer         interface{ Error() string }
	unwrapper       interface{ Unwrap() error }
	multiUnwrapper  interface{ Unwrap() []error }
	iser            interface{ Is(error) bool }
	aser            interface{ As(any) bool }
	sorter          sort.Interface
	heaper          heap.Interface
	handler         http.Handler
	jsonMarshaler   json.Marshaler
	jsonUnmarshaler json.Unmarshaler
	textMarshaler   encoding.TextMarshaler
	textUnmarshaler encoding.TextUnmarshaler
	flagValue       flag.Value
	reader          io.Reader
	writer          io.Writer
	closer          io.Closer
)
`

// stdInterfaces type-checks stdInterfaceSrc and returns its interfaces.
func (l *repoLoader) stdInterfaces() ([]*types.Interface, error) {
	f, err := parser.ParseFile(l.fset, "stdifaces.go", stdInterfaceSrc, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l.std}
	pkg, err := conf.Check("stdifaces", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out, nil
}
