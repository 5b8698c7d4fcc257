package hygiene

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// writeOnlyAllowlist names the internal/ struct types and fields that may
// lack a non-test read, each with the reason it stays. A type entry covers
// all of its fields.
var writeOnlyAllowlist = map[string]string{
	"core.BatchOutcome.EdgeScans": "fixture: the root package's BenchmarkBatchRun reports edge-scans/query, ns/edge and scans-saved-% from it",
	"service.DatasetInfo":         "read by encoding/json: emogi-serve's /v1/datasets handler marshals it, untagged, so the field names are the wire keys",
}

// TestNoWriteOnlyFields keeps internal/ down to the state that is used:
// every struct field declared there must be read by a non-test file of
// the repository (the module and the perfbench module). Assigning to a
// field, `op=`, `++`/`--` and naming it as a composite-literal key are
// writes; everything else (a selector in an expression, &x.f, ranging
// over it, passing it as an argument, promoting through an embedded
// field) is a read. A field only tests read serves nothing but those
// tests. Structs that carry a json tag are read by encoding/json
// reflection, and structs used as map keys are compared whole, so both
// are exempt.
func TestNoWriteOnlyFields(t *testing.T) {
	fs := scanFields(t)
	for _, name := range fs.names() {
		d := fs.fields[name]
		if len(d.reads) > 0 || d.exempt {
			continue
		}
		if _, ok := writeOnlyAllowlist[name]; ok {
			continue
		}
		if _, ok := writeOnlyAllowlist[d.typ]; ok {
			continue
		}
		t.Errorf("%s: %s has no non-test read; delete it (and its writes), read it, or allowlist it with a reason",
			fs.l.position(d.pos), name)
	}

	t.Run("AllowlistCurrent", func(t *testing.T) {
		for name := range writeOnlyAllowlist {
			var unread, found bool
			for fname, d := range fs.fields {
				if fname == name || d.typ == name {
					found = true
					unread = unread || (len(d.reads) == 0 && !d.exempt)
				}
			}
			switch {
			case !found:
				t.Errorf("allowlisted %s is no longer declared; drop its entry", name)
			case !unread:
				t.Errorf("allowlisted %s is read or exempt anyway; drop its entry", name)
			}
		}
	})
}

// fieldDecl is one struct field declared under internal/.
type fieldDecl struct {
	typ    string // the enclosing type, as pkg.T (pkg.T.f for a struct nested in field f)
	pos    token.Pos
	exempt bool     // the struct carries a json tag or is a map key
	reads  []string // repo-relative files that read it
}

type fieldScan struct {
	l      *repoLoader
	fields map[string]*fieldDecl // pkg.T.field
}

func (s *fieldScan) names() []string {
	names := make([]string, 0, len(s.fields))
	for n := range s.fields {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// scanFields records, for each struct field declared under internal/, the
// non-test files of the repository that read it.
func scanFields(t *testing.T) *fieldScan {
	l := loadRepo(t)
	fs := &fieldScan{l: l, fields: map[string]*fieldDecl{}}
	byVar := map[*types.Var]*fieldDecl{}

	var mapKeys []types.Type
	for _, path := range l.paths() {
		for _, tv := range l.pkgs[path].info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				mapKeys = append(mapKeys, m.Key().Underlying())
			}
		}
	}
	isMapKey := func(st types.Type) bool {
		for _, k := range mapKeys {
			if types.Identical(k, st) {
				return true
			}
		}
		return false
	}

	for _, path := range l.paths() {
		if !internal(path) {
			continue
		}
		p := l.pkgs[path]
		for _, f := range p.files {
			names := map[*ast.StructType]string{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						names[st] = p.pkg.Name() + "." + n.Name.Name
					}
				case *ast.StructType:
					typ, ok := names[n]
					if !ok {
						typ = p.pkg.Name() + ".struct@" + l.position(n.Pos())
					}
					exempt := hasJSONTag(n) || isMapKey(p.info.Types[n].Type.Underlying())
					for _, fld := range n.Fields.List {
						for _, id := range fieldIdents(fld) {
							v := p.info.Defs[id].(*types.Var)
							d := &fieldDecl{typ: typ, pos: id.Pos(), exempt: exempt}
							fs.fields[typ+"."+v.Name()] = d
							byVar[v] = d
							nameNested(fld.Type, typ+"."+v.Name(), names)
						}
					}
				}
				return true
			})
		}
	}

	read := func(v *types.Var, at token.Pos) {
		d := byVar[v.Origin()]
		if d == nil {
			return
		}
		if file := l.file(at); len(d.reads) == 0 || d.reads[len(d.reads)-1] != file {
			d.reads = append(d.reads, file)
		}
	}
	for _, path := range l.paths() {
		p := l.pkgs[path]
		writes := map[*ast.Ident]bool{}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markWrite(lhs, writes)
					}
				case *ast.IncDecStmt:
					markWrite(n.X, writes)
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read(v, id.Pos())
			}
		}
		// A selection through an embedded field reads the embedded field.
		for sel, s := range p.info.Selections {
			typ := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					break
				}
				v := st.Field(i)
				read(v, sel.Pos())
				typ = v.Type()
			}
		}
	}
	return fs
}

// fieldIdents returns the identifiers a struct field declares: its names,
// or for an embedded field the type name.
func fieldIdents(fld *ast.Field) []*ast.Ident {
	if len(fld.Names) > 0 {
		return fld.Names
	}
	typ := fld.Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.SelectorExpr:
			return []*ast.Ident{x.Sel}
		case *ast.Ident:
			return []*ast.Ident{x}
		default:
			return nil
		}
	}
}

// nameNested names the struct types written inside a field's type (as in
// `f []struct{...}`) after the field.
func nameNested(typ ast.Expr, name string, names map[*ast.StructType]string) {
	ast.Inspect(typ, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			names[st] = name
			return false
		}
		return true
	})
}

// hasJSONTag reports whether any field of the struct carries a json tag.
func hasJSONTag(st *ast.StructType) bool {
	for _, fld := range st.Fields.List {
		if fld.Tag != nil {
			tag, err := strconv.Unquote(fld.Tag.Value)
			if _, ok := reflect.StructTag(tag).Lookup("json"); ok && err == nil {
				return true
			}
		}
	}
	return false
}

// markWrite records the field an assignment target names, if it names one
// directly (x.f, not x.f[i] or *x.f).
func markWrite(lhs ast.Expr, writes map[*ast.Ident]bool) {
	for {
		p, ok := lhs.(*ast.ParenExpr)
		if !ok {
			break
		}
		lhs = p.X
	}
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		writes[sel.Sel] = true
	}
}
