// State-struct facts for the statecov analyzer.
//
// A struct whose type declaration carries //simlint:state is a
// simulation-state struct: the fork/checkpoint machinery must account
// for every one of its fields, or sharded and resumed replays silently
// diverge from the sequential oracle. The facts here record each such
// struct's ordered field set and its per-field exemptions, plus — per
// function — which state-struct fields the body reads or writes, so
// the analyzer can close over static callees.
//
// Directive grammar (validated by the directives analyzer):
//
//	//simlint:state
//	    on a struct type, with no arguments.
//	//simlint:statederived <field> [class ...]
//	    on the same struct: the field is recomputable (or deliberately
//	    untouched) and exempt from coverage — in the named handler
//	    classes, or in every class when none are named.
//	//simlint:statefull <class>
//	    on a handler function: a deep copy (fork, clone, checkpoint or
//	    restore) that must cover every field of its state struct.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"streamsim/internal/analysis"
)

// StatefullClasses is the closed set of //simlint:statefull classes.
// All four are deep copies; the class only scopes statederived
// exemptions.
var StatefullClasses = map[string]bool{
	"fork":       true,
	"clone":      true,
	"checkpoint": true,
	"restore":    true,
}

// StateField is one field of a state struct, in declaration order.
type StateField struct {
	Name string
	Type types.Type
}

// StateStruct is the exported fact of one //simlint:state struct.
type StateStruct struct {
	// Key is the StateKey form "pkgpath.Name", stable across the
	// from-source and export-data views of the type.
	Key string
	Obj *types.TypeName
	Pkg *analysis.Package
	Pos token.Pos
	// Fields lists every field (exported or not) in declaration order.
	Fields []StateField
	// Derived maps a field name to the classes its
	// //simlint:statederived directive exempts it in; an empty class
	// list exempts it everywhere.
	Derived map[string][]string
}

// DerivedFor reports whether field is exempt from coverage in class.
func (ss *StateStruct) DerivedFor(field, class string) bool {
	classes, ok := ss.Derived[field]
	if !ok {
		return false
	}
	if len(classes) == 0 {
		return true
	}
	for _, c := range classes {
		if c == class {
			return true
		}
	}
	return false
}

// Short renders the struct name without package-path directories, for
// diagnostics: "cache.Stats" instead of "streamsim/internal/cache.Stats".
func (ss *StateStruct) Short() string {
	if pkg := ss.Obj.Pkg(); pkg != nil {
		return pkg.Name() + "." + ss.Obj.Name()
	}
	return ss.Obj.Name()
}

// StateKey renders the States map key of a named type's object.
func StateKey(obj *types.TypeName) string {
	if pkg := obj.Pkg(); pkg != nil {
		return pkg.Path() + "." + obj.Name()
	}
	return obj.Name()
}

// StateOf resolves t (dereferencing one pointer level) to a registered
// state struct, or nil.
func (g *Graph) StateOf(t types.Type) *StateStruct {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return g.States[StateKey(named.Obj())]
}

// ValueStateOf resolves t to a registered state struct only when t is
// the struct itself, not a pointer to it (the type of a composite
// literal that builds one).
func (g *Graph) ValueStateOf(t types.Type) *StateStruct {
	if _, ok := t.(*types.Pointer); ok {
		return nil
	}
	return g.StateOf(t)
}

// StateSubject resolves the state struct a //simlint:statefull handler
// covers: the receiver when it is (a pointer to) a state struct,
// otherwise the first such parameter (snapshotSystem-style helpers take
// the system as an argument). Nil when neither names one — statecov
// reports that as a dead annotation.
func (g *Graph) StateSubject(fn *Func) *StateStruct {
	sig := fn.Obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return g.StateOf(recv.Type())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if ss := g.StateOf(sig.Params().At(i).Type()); ss != nil {
			return ss
		}
	}
	return nil
}

// scanStateTypes registers every //simlint:state struct in the loaded
// packages. Directive placement and spelling problems (state on a
// non-struct, statederived naming a missing field, unknown classes)
// are the directives analyzer's findings; here malformed entries are
// simply skipped so the facts stay well-formed.
func scanStateTypes(g *Graph, pkgs []*analysis.Package) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					registerStateType(g, pkg, ts, doc)
				}
			}
		}
	}
}

// registerStateType parses one type declaration's doc comment and, when
// it carries //simlint:state, adds the struct to g.States.
func registerStateType(g *Graph, pkg *analysis.Package, ts *ast.TypeSpec, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	isState := false
	derived := map[string][]string{}
	for _, c := range doc.List {
		verb, args := SplitDirective(c.Text)
		switch verb {
		case "state":
			isState = true
		case "statederived":
			if len(args) > 0 {
				derived[args[0]] = args[1:]
			}
		}
	}
	if !isState {
		return
	}
	obj, ok := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	ss := &StateStruct{
		Key:     StateKey(obj),
		Obj:     obj,
		Pkg:     pkg,
		Pos:     ts.Name.Pos(),
		Derived: derived,
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		ss.Fields = append(ss.Fields, StateField{Name: f.Name(), Type: f.Type()})
	}
	g.States[ss.Key] = ss
}

// scanStateUses fills fn.StateUses: every state-struct field the body
// reads or writes, plus whole-value uses. The rules mirror how the
// snapshot handlers are written:
//
//   - a selector x.f whose base is a state struct covers field f;
//   - a composite literal T{...} of a state struct covers its listed
//     (or, positionally, its leading) fields — an unlisted field is a
//     silent zero, which is exactly the bug class statecov exists to
//     catch, so the literal does NOT cover it;
//   - an empty literal T{} covers everything: it is the deliberate
//     reset-to-zero idiom, and a new field cannot be forgotten by it;
//   - a pointer dereference *p of a *T covers everything: the `n := *c`
//     clone idiom copies each field by construction.
func scanStateUses(g *Graph, fn *Func) {
	info := fn.Pkg.TypesInfo
	use := func(key, field string) {
		if fn.StateUses == nil {
			fn.StateUses = map[string]map[string]bool{}
		}
		m := fn.StateUses[key]
		if m == nil {
			m = map[string]bool{}
			fn.StateUses[key] = m
		}
		m[field] = true
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := info.Selections[n]
			if ok && sel.Kind() == types.FieldVal {
				if ss := g.StateOf(sel.Recv()); ss != nil {
					use(ss.Key, sel.Obj().Name())
				}
			}
		case *ast.StarExpr:
			tv, ok := info.Types[n.X]
			if !ok || !tv.IsValue() {
				break
			}
			if _, isPtr := tv.Type.(*types.Pointer); !isPtr {
				break
			}
			if ss := g.StateOf(tv.Type); ss != nil {
				use(ss.Key, "*")
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				break
			}
			ss := g.ValueStateOf(tv.Type)
			if ss == nil {
				break
			}
			if len(n.Elts) == 0 {
				use(ss.Key, "*")
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						use(ss.Key, id.Name)
					}
				} else if i < len(ss.Fields) {
					use(ss.Key, ss.Fields[i].Name)
				}
			}
		}
		return true
	})
}
