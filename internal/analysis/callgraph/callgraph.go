// Package callgraph is the shared facts layer for flow-aware simlint
// analyzers: an intra-module call graph over the packages a driver
// loaded, with per-function facts (annotations, nondeterministic
// constructs, context parameters and context.Background/TODO call
// sites) attached to every node. Analyzers declare
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
	Decl *ast.FuncDecl
	Pkg  *analysis.Package

	// Deterministic records //simlint:deterministic: the function is a
	// result-producing root the detflow analyzer proves transitively
	// free of nondeterministic constructs.
	Deterministic bool
	// ConfigLoad records //simlint:configload: the function reads the
	// environment or filesystem by design (a config loader), and
	// detflow does not traverse into it.
	ConfigLoad bool

	// CtxParams are the function's context.Context parameters.
	CtxParams []*types.Var
	// Exported mirrors ast.IsExported of the declared name.
	Exported bool

	// Nondets are the nondeterministic constructs in the body (see
	// nondet.go for the rules; the sorted-slice map-range idiom is
	// exempt).
	Nondets []Nondet
	// Contexts are context.Background()/context.TODO() call sites.
	Contexts []token.Pos
	// Calls are the statically resolved calls to other module
	// functions, in source order. Dynamic dispatch — interface
	// methods and func values — has no edge: the analyzers treat hook
	// indirection as a deliberate seam.
	Calls []Call
}

// Call is one static call edge.
type Call struct {
	Pos    token.Pos
	Callee *Func
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
// on a declaration's doc comment: deterministic and configload. Any
// arguments are ignored here (test gate files use them to name entry
// points); the directives analyzer validates spelling and placement.
func applyDirectives(fn *Func, doc *ast.CommentGroup) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		switch verb, _ := SplitDirective(c.Text); verb {
		case "deterministic":
			fn.Deterministic = true
		case "configload":
			fn.ConfigLoad = true
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

// scanBody fills fn.Contexts and fn.Calls. The walk covers
// function-literal bodies too: their calls still matter for context
// and determinism flow. A panic's argument gets no edge: the unwind is
// terminal, so nothing it calls runs on a path that returns.
func scanBody(g *Graph, fn *Func) {
	info := fn.Pkg.TypesInfo
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				return false
			}
		}
		callee := StaticCallee(info, call)
		if callee == nil {
			return true
		}
		if node := g.Funcs[callee.FullName()]; node != nil {
			fn.Calls = append(fn.Calls, Call{Pos: call.Pos(), Callee: node})
		}
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "context" {
			if callee.Name() == "Background" || callee.Name() == "TODO" {
				fn.Contexts = append(fn.Contexts, call.Pos())
			}
		}
		return true
	})
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
