package hygiene

import (
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
	"testing"
)

// testOnlyAllowlist names the exported internal/ funcs and methods that
// may lack a non-test reference, each with the reason it stays. An entry
// is either a reference oracle that tests compare against, or a fixture
// that tests in another package need and no production API expresses.
var testOnlyAllowlist = map[string]string{
	"graph.ReachableCount":         "reference oracle in ref.go: core tests count the vertices a traversal reached",
	"gpu.(*Warp).InvalidateMRU":    "fixture: the root package's BenchmarkCoalescer clears lane reuse so every timed op issues its requests",
	"memsys.(*Arena).MustAlloc":    "fixture: gpu, uvm and root-package tests allocate buffers whose capacity is known to suffice",
	"memsys.WithBaseOffset":        "fixture: gpu and core tests place edge lists off a 128-byte boundary to cover misaligned bases",
	"telemetry.(*Histogram).Count": "fixture: service tests count per-stage and batch-size observations",
}

// TestNoTestOnlyInternalAPI keeps internal/ down to the code that runs:
// every exported func or method declared there must be referenced from a
// non-test file of the repository. Code outside the module cannot import
// internal/, so an export that only its own tests call serves nothing but
// those tests. Callers are the module's non-test files plus the separate
// perfbench module, which imports internal packages too. Methods that
// satisfy an interface (a standard one such as fmt.Stringer or
// sort.Interface, or one the code declares) are reached by dynamic
// dispatch and are exempt.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	root := repoRoot(t)
	sc := scanRepo(t, root)
	for _, name := range sc.names() {
		d := sc.decls[name]
		if len(d.refs) > 0 || d.dispatched {
			continue
		}
		if _, ok := testOnlyAllowlist[name]; ok {
			continue
		}
		t.Errorf("%s: %s has no non-test reference; delete it, move it into a _test.go file, or allowlist it as a test oracle or cross-package fixture",
			sc.position(root, d.fn.Pos()), name)
	}

	t.Run("AllowlistCurrent", func(t *testing.T) {
		for name := range testOnlyAllowlist {
			d, ok := sc.decls[name]
			switch {
			case !ok:
				t.Errorf("allowlisted %s is no longer declared; drop its entry", name)
			case len(d.refs) > 0:
				t.Errorf("allowlisted %s is referenced from %s; drop its entry", name, d.refs[0])
			case d.dispatched:
				t.Errorf("allowlisted %s satisfies an interface and is exempt anyway; drop its entry", name)
			}
		}
	})

	// service.(*Service).Registry has its only caller in perfbench, a
	// separate module that the root ./... never builds; a scan that
	// skipped it would flag the method, and deleting it would break the
	// benchmark.
	t.Run("PerfbenchIsACaller", func(t *testing.T) {
		const name = "service.(*Service).Registry"
		d, ok := sc.decls[name]
		if !ok {
			t.Fatalf("%s is not declared", name)
		}
		for _, ref := range d.refs {
			if strings.HasPrefix(ref, "perfbench/") {
				return
			}
		}
		t.Errorf("%s: no reference from perfbench/ seen; refs = %v", name, d.refs)
	})
}

// internalDecl is one exported func or method declared under internal/.
type internalDecl struct {
	fn         *types.Func
	body       [2]token.Pos // the declaration's extent: uses inside it are recursion
	refs       []string     // repo-relative files that reference it, outside its own body
	dispatched bool         // a method that satisfies an interface
}

type repoScan struct {
	fset  *token.FileSet
	decls map[string]*internalDecl
}

func (s *repoScan) names() []string {
	names := make([]string, 0, len(s.decls))
	for n := range s.decls {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (s *repoScan) position(root string, pos token.Pos) string {
	p := s.fset.Position(pos)
	if rel, err := filepath.Rel(root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return p.String()
}

// scanRepo type-checks every non-test file of the repository (build tags
// honoured) and records, for each exported internal/ func and method, the
// non-test files that reference it.
func scanRepo(t *testing.T, root string) *repoScan {
	t.Helper()
	l := newRepoLoader(t, root)
	sc := &repoScan{fset: l.fset, decls: map[string]*internalDecl{}}
	byFunc := map[*types.Func]*internalDecl{}
	for _, path := range l.paths() {
		p := l.load(path)
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				d := &internalDecl{fn: fn, body: [2]token.Pos{fd.Pos(), fd.End()}}
				sc.decls[displayName(fn)] = d
				byFunc[fn] = d
			}
		}
	}

	ifaces := l.stdInterfaces()
	seen := map[types.Type]bool{}
	for _, path := range l.paths() {
		p := l.load(path)
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			d := byFunc[fn.Origin()]
			if d == nil || (id.Pos() >= d.body[0] && id.Pos() < d.body[1]) {
				continue
			}
			file := sc.position(root, id.Pos())
			file = file[:strings.IndexByte(file, ':')]
			if n := len(d.refs); n == 0 || d.refs[n-1] != file {
				d.refs = append(d.refs, file)
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 && !seen[tv.Type] {
				seen[tv.Type] = true
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, d := range sc.decls {
		d.dispatched = satisfiesInterface(d.fn, ifaces)
	}
	return sc
}

// displayName spells a func as pkg.Name and a method as pkg.T.Name or
// pkg.(*T).Name, with pkg the package name under internal/.
func displayName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	typ := recv.Type()
	ptr := false
	if p, ok := typ.(*types.Pointer); ok {
		typ, ptr = p.Elem(), true
	}
	name := typ.(*types.Named).Obj().Name()
	if ptr {
		name = "(*" + name + ")"
	}
	return fn.Pkg().Name() + "." + name + "." + fn.Name()
}

// satisfiesInterface reports whether fn is a method whose receiver type
// implements one of ifaces through a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if _, ok := typ.(*types.Pointer); !ok {
		typ = types.NewPointer(typ)
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && types.Implements(typ, it) {
				return true
			}
		}
	}
	return false
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

// modulePath is the root module's path; perfbench is repro/perfbench.
const modulePath = "repro"

// repoLoader type-checks the repository's packages from source: module
// packages from their directories, the standard library through
// go/importer's source importer.
type repoLoader struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*loadedPkg
}

type loadedPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newRepoLoader(t *testing.T, root string) *repoLoader {
	fset := token.NewFileSet()
	l := &repoLoader{
		t:    t,
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
		if len(l.goFiles(path)) == 0 {
			return nil
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
		t.Fatal(err)
	}
	return l
}

// goFiles lists the dir's non-test .go files that the default build
// context selects (GOOS/GOARCH suffixes and //go:build lines honoured).
func (l *repoLoader) goFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)

		if err != nil {
			l.t.Fatal(err)
		}
		if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files
}

func (l *repoLoader) paths() []string {
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Import resolves module packages from source and everything else through
// the standard-library importer.
func (l *repoLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		return l.load(path).pkg, nil
	}
	return l.std.Import(path)
}

func (l *repoLoader) load(path string) *loadedPkg {
	if p, ok := l.pkgs[path]; ok {
		return p
	}
	p := &loadedPkg{info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range l.goFiles(l.dirs[path]) {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", path, err)
	}
	p.pkg = pkg
	l.pkgs[path] = p
	return p
}

// stdInterfaces type-checks stdInterfaceSrc and returns its interfaces.
func (l *repoLoader) stdInterfaces() []*types.Interface {
	f, err := parser.ParseFile(l.fset, "stdifaces.go", stdInterfaceSrc, 0)
	if err != nil {
		l.t.Fatal(err)
	}
	conf := types.Config{Importer: l.std}
	pkg, err := conf.Check("stdifaces", l.fset, []*ast.File{f}, nil)
	if err != nil {
		l.t.Fatal(err)
	}
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out
}
