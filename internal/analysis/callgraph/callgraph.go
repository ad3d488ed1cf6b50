// Package callgraph is the shared facts layer for flow-aware simlint
// analyzers: an intra-module call graph over the packages a driver
// loaded, with per-function facts (annotations, allocating constructs,
// context parameters and context.Background/TODO call sites) attached
// to every node. Analyzers declare
//
//	Facts:    callgraph.Facts,
//	FactsKey: callgraph.FactsKey,
//
// and the analysis.RunSuite driver builds the graph exactly once per
// run, however many analyzers consume it.
//
// Nodes are keyed by types.Func.FullName() rather than object
// identity: each package is type-checked against compiler export data
// of its dependencies, so the *types.Func a caller resolves for a
// cross-package callee is a different object from the one minted when
// the callee's own package was checked from source. FullName is stable
// across both views.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"streamsim/internal/analysis"
)

// FactsKey is the analysis.Analyzer.FactsKey shared by every analyzer
// built on this package.
const FactsKey = "callgraph"

// Facts is the analysis.Analyzer.Facts builder: it returns *Graph.
func Facts(pkgs []*analysis.Package) (any, error) {
	return Build(pkgs), nil
}

// From recovers the graph an analyzer's Facts built, or nil when the
// pass ran without module facts.
func From(pass *analysis.Pass) *Graph {
	g, _ := pass.ModuleFacts.(*Graph)
	return g
}

// Graph is the intra-module call graph plus per-function facts.
type Graph struct {
	// Funcs maps types.Func.FullName() to the node for every function
	// and method declared with a body in the loaded packages.
	Funcs map[string]*Func
	// Decls maps each declaration back to its node, for per-package
	// passes iterating their own files.
	Decls map[*ast.FuncDecl]*Func
}

// Func is one module function or method whose source was loaded.
type Func struct {
	// Name is the types.Func.FullName() node key, e.g.
	// "(*streamsim/internal/cache.Cache).Probe".
	Name string
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.Package

	// Hotpath and Coldpath record //simlint:hotpath and
	// //simlint:coldpath directives in the declaration's doc comment.
	Hotpath  bool
	Coldpath bool
	// Deterministic records //simlint:deterministic: the function is a
	// result-producing root the detflow analyzer proves transitively
	// free of nondeterministic constructs.
	Deterministic bool
	// ConfigLoad records //simlint:configload: the function reads the
	// environment or filesystem by design (a config loader), and
	// detflow does not traverse into it.
	ConfigLoad bool
	// Borrowed are the signature positions named by //simlint:borrowed
	// (receiver = -1, parameters 0-based): values the function must
	// not retain. Names that fail to resolve are dropped here and
	// reported by the directives analyzer.
	Borrowed []int

	// CtxParams are the function's context.Context parameters.
	CtxParams []*types.Var
	// Exported mirrors ast.IsExported of the declared name.
	Exported bool

	// Allocs are the allocating constructs in the body (see Alloc for
	// the rules; panic arguments are exempt).
	Allocs []Alloc
	// Nondets are the nondeterministic constructs in the body (see
	// nondet.go for the rules; the sorted-slice map-range idiom is
	// exempt).
	Nondets []Nondet
	// Contexts are context.Background()/context.TODO() call sites.
	Contexts []token.Pos
	// Calls are the statically resolved calls to other module
	// functions, in source order. Dynamic dispatch — interface
	// methods and func values — has no edge: the dispatch itself does
	// not allocate, and the analyzers treat hook indirection as a
	// deliberate seam.
	Calls []Call
}

// Call is one static call edge.
type Call struct {
	Pos    token.Pos
	Callee *Func
	// Expr is the call site, for analyzers that inspect arguments.
	Expr *ast.CallExpr
}

// Alloc is one allocating construct found in a function body.
type Alloc struct {
	Pos  token.Pos
	What string
}

// Build constructs the graph over the loaded packages. Packages must
// share one token.FileSet (analysis.Load and the analysistest loader
// both guarantee this), so positions from any node print correctly
// through any pass's Fset.
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{
		Funcs: map[string]*Func{},
		Decls: map[*ast.FuncDecl]*Func{},
	}
	// First pass: one node per declaration, so edge resolution in the
	// second pass can look callees up whatever order packages load in.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{
					Name:     obj.FullName(),
					Obj:      obj,
					Decl:     fd,
					Pkg:      pkg,
					Exported: fd.Name.IsExported(),
				}
				applyDirectives(fn, fd.Doc)
				sig := obj.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					if p := sig.Params().At(i); isContext(p.Type()) {
						fn.CtxParams = append(fn.CtxParams, p)
					}
				}
				g.Funcs[fn.Name] = fn
				g.Decls[fd] = fn
			}
		}
	}
	for _, fn := range g.Decls {
		scanBody(g, fn)
		scanNondets(fn)
	}
	return g
}

// applyDirectives parses the //simlint:* verbs that mark graph facts
// on a declaration's doc comment: hotpath, coldpath, deterministic,
// configload, and borrowed <names>. Verbs other than borrowed ignore
// any arguments here (test gate files use them to name entry points);
// the directives analyzer validates spelling, placement and argument
// resolution.
func applyDirectives(fn *Func, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		verb, args := SplitDirective(c.Text)
		switch verb {
		case "hotpath":
			fn.Hotpath = true
		case "coldpath":
			fn.Coldpath = true
		case "deterministic":
			fn.Deterministic = true
		case "configload":
			fn.ConfigLoad = true
		case "borrowed":
			for _, name := range args {
				if i, ok := ParamIndex(fn, name); ok {
					fn.Borrowed = append(fn.Borrowed, i)
				}
			}
		}
	}
}

// SplitDirective parses one "//simlint:verb arg arg" comment into its
// verb and arguments (space- or comma-separated). A "//" token starts
// an embedded remark and ends the directive, so trailing commentary
// (including analysistest want expectations) never reads as an
// argument. The verb is "" when the comment is not a simlint
// directive; IsDirective distinguishes a malformed directive from an
// ordinary comment.
func SplitDirective(text string) (verb string, args []string) {
	rest, ok := strings.CutPrefix(text, "//simlint:")
	if !ok {
		return "", nil
	}
	fields := strings.FieldsFunc(rest, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ','
	})
	for i, f := range fields {
		if strings.HasPrefix(f, "//") {
			fields = fields[:i]
			break
		}
	}
	if len(fields) == 0 {
		return "", nil
	}
	return fields[0], fields[1:]
}

// IsDirective reports whether a comment claims the simlint directive
// namespace (whether or not it parses).
func IsDirective(text string) bool {
	return strings.HasPrefix(text, "//simlint:")
}

// ParamIndex resolves a //simlint:borrowed argument against fn's
// signature: the receiver is index -1, parameters are 0-based.
func ParamIndex(fn *Func, name string) (int, bool) {
	if name == "" || name == "_" {
		return 0, false
	}
	sig := fn.Obj.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil && recv.Name() == name {
		return -1, true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == name {
			return i, true
		}
	}
	return 0, false
}

// ParamAt returns the *types.Var at a ParamIndex position: the
// receiver for -1, the i'th parameter otherwise (nil when out of
// range).
func ParamAt(fn *Func, index int) *types.Var {
	sig := fn.Obj.Type().(*types.Signature)
	if index < 0 {
		return sig.Recv()
	}
	if index >= sig.Params().Len() {
		return nil
	}
	return sig.Params().At(index)
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// StaticCallee resolves a call expression to the invoked *types.Func,
// or nil when the call is dynamic (func value, interface method), a
// conversion, or a builtin.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil // dynamic dispatch
	}
	return fn
}

// scanBody fills fn.Allocs, fn.Contexts and fn.Calls. The walk covers
// function-literal bodies too (their calls still matter for context
// flow), but a literal's interior allocations are not recorded: on a
// hot path the closure's creation is already the finding.
//
// Allocation rules, tuned so that deliberate zero-alloc idioms pass
// and everything the escape analyzer could punt to the heap is
// flagged:
//
//   - make, new, append and function literals are always allocating;
//   - map and slice composite literals allocate, as does any literal
//     whose address is taken (&T{...}); a plain value literal
//     (Result{...}) stays on the stack and is allowed;
//   - string ↔ []byte/[]rune conversions copy;
//   - passing a concrete value where the callee wants an interface
//     boxes it;
//   - any call into fmt or log is banned outright;
//   - panic arguments are exempt: the unwind path is terminal, an
//     allocation there never runs on the steady-state hot path.
func scanBody(g *Graph, fn *Func) {
	info := fn.Pkg.TypesInfo
	var walk func(n ast.Node, inLit bool) bool
	visit := func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool { return walk(n, inLit) })
	}
	walk = func(n ast.Node, inLit bool) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !inLit {
				fn.Allocs = append(fn.Allocs, Alloc{n.Pos(), "closure creation"})
			}
			visit(n.Body, true)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && !inLit {
					fn.Allocs = append(fn.Allocs, Alloc{n.Pos(), "composite literal escapes via &"})
					// The literal's fields may still contain calls.
					for _, elt := range lit.Elts {
						visit(elt, inLit)
					}
					return false
				}
			}
		case *ast.CompositeLit:
			if inLit {
				break
			}
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Map:
				fn.Allocs = append(fn.Allocs, Alloc{n.Pos(), "map literal"})
			case *types.Slice:
				fn.Allocs = append(fn.Allocs, Alloc{n.Pos(), "slice literal"})
			}
		case *ast.CallExpr:
			return scanCall(g, fn, n, inLit, visit)
		}
		return true
	}
	visit(fn.Decl.Body, false)
}

// scanCall classifies one call expression; it returns false when the
// walk should not descend further (the panic exemption and conversions
// handle their own children).
func scanCall(g *Graph, fn *Func, call *ast.CallExpr, inLit bool, visit func(ast.Node, bool)) bool {
	info := fn.Pkg.TypesInfo
	// Conversions: T(x) where T is a type, not a function.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if !inLit && isStringBytesConv(tv.Type, info.Types[call.Args[0]].Type) {
			fn.Allocs = append(fn.Allocs, Alloc{call.Pos(), "string conversion copies"})
		}
		return true
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if !inLit {
				switch b.Name() {
				case "make":
					fn.Allocs = append(fn.Allocs, Alloc{call.Pos(), "make"})
				case "new":
					fn.Allocs = append(fn.Allocs, Alloc{call.Pos(), "new"})
				case "append":
					fn.Allocs = append(fn.Allocs, Alloc{call.Pos(), "append may grow its backing array"})
				}
			}
			if b.Name() == "panic" {
				// Terminal unwind: nothing inside the argument runs on
				// the steady-state path. Skip the whole subtree.
				return false
			}
			return true
		}
	}
	if callee := StaticCallee(info, call); callee != nil {
		if pkg := callee.Pkg(); pkg != nil && !inLit {
			switch pkg.Path() {
			case "fmt", "log":
				fn.Allocs = append(fn.Allocs, Alloc{call.Pos(), "call to " + pkg.Name() + "." + callee.Name()})
			}
		}
		if node := g.Funcs[callee.FullName()]; node != nil {
			fn.Calls = append(fn.Calls, Call{Pos: call.Pos(), Callee: node, Expr: call})
		}
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "context" {
			if callee.Name() == "Background" || callee.Name() == "TODO" {
				fn.Contexts = append(fn.Contexts, call.Pos())
			}
		}
	}
	if !inLit {
		scanBoxing(fn, call)
	}
	return true
}

// scanBoxing flags concrete-to-interface argument conversions at one
// call site.
func scanBoxing(fn *Func, call *ast.CallExpr) {
	info := fn.Pkg.TypesInfo
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...): the slice passes through unboxed
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.IsNil() || at.Type == nil {
			continue
		}
		if types.IsInterface(pt) && !types.IsInterface(at.Type) {
			fn.Allocs = append(fn.Allocs, Alloc{arg.Pos(), "interface conversion boxes " + at.Type.String()})
		}
	}
}

// isStringBytesConv reports whether a conversion from `from` to `to`
// is one of the copying string ↔ []byte/[]rune forms.
func isStringBytesConv(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// Short renders a node name without the package-path directories, for
// diagnostics: "(*cache.Cache).Probe" instead of the FullName form
// "(*streamsim/internal/cache.Cache).Probe".
func (f *Func) Short() string {
	name := f.Name
	i := strings.LastIndex(name, "/")
	if i < 0 {
		return name
	}
	prefix := ""
	for _, r := range name {
		if r != '(' && r != '*' {
			break
		}
		prefix += string(r)
	}
	return prefix + name[i+1:]
}
