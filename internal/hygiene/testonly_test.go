package hygiene

import (
	"go/ast"
	"go/token"
	"go/types"
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
	"memsys.(*Arena).MustAlloc":    "fixture: gpu, uvm and root-package tests allocate buffers whose capacity is known to suffice",
	"memsys.WithBaseOffset":        "fixture: gpu and core tests place edge lists off a 128-byte boundary to cover misaligned bases",
	"telemetry.(*Histogram).Count": "fixture: service tests count per-stage and batch-size observations",
}

// TestNoTestOnlyInternalAPI keeps internal/ down to the code that runs:
// every func or method declared there, exported or not, must be referenced
// from a non-test file of the repository, outside its own body. Code
// outside the module cannot import internal/, so an export that only its
// own tests call serves nothing but those tests, and an unexported func
// with no caller serves nothing at all. main and init are exempt. Callers
// are the module's non-test files plus the separate perfbench module,
// which imports internal packages too. Methods that
// satisfy an interface (a standard one such as fmt.Stringer or
// sort.Interface, or one the code declares) are reached by dynamic
// dispatch and are exempt.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	sc := scanRepo(t)
	for _, name := range sc.names() {
		d := sc.decls[name]
		if len(d.refs) > 0 || d.dispatched {
			continue
		}
		if _, ok := testOnlyAllowlist[name]; ok {
			continue
		}
		t.Errorf("%s: %s has no non-test reference; delete it, move it into a _test.go file, or allowlist it as a test oracle or cross-package fixture",
			sc.l.position(d.fn.Pos()), name)
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

// internalDecl is one func or method declared under internal/.
type internalDecl struct {
	fn         *types.Func
	body       [2]token.Pos // the declaration's extent: uses inside it are recursion
	refs       []string     // repo-relative files that reference it, outside its own body
	dispatched bool         // a method that satisfies an interface
}

type repoScan struct {
	l     *repoLoader
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

// scanRepo records, for each internal/ func and method other than main and
// init, the non-test files of the repository that reference it.
func scanRepo(t *testing.T) *repoScan {
	l := loadRepo(t)
	sc := &repoScan{l: l, decls: map[string]*internalDecl{}}
	byFunc := map[*types.Func]*internalDecl{}
	for _, path := range l.paths() {
		if !internal(path) {
			continue
		}
		p := l.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				d := &internalDecl{fn: fn, body: [2]token.Pos{fd.Pos(), fd.End()}}
				sc.decls[displayName(fn)] = d
				byFunc[fn] = d
			}
		}
	}

	for _, path := range l.paths() {
		for id, obj := range l.pkgs[path].info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			d := byFunc[fn.Origin()]
			if d == nil || (id.Pos() >= d.body[0] && id.Pos() < d.body[1]) {
				continue
			}
			if file := l.file(id.Pos()); len(d.refs) == 0 || d.refs[len(d.refs)-1] != file {
				d.refs = append(d.refs, file)
			}
		}
	}
	for _, d := range sc.decls {
		d.dispatched = satisfiesInterface(d.fn, l.ifaces)
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
