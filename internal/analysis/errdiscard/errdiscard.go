// Package errdiscard flags discarded error returns from the trace
// codec and the config loaders.
//
// Invariant protected: the trace codec reports truncated or corrupt
// trace files, deferred flush failures and short writes through error
// returns, and the config loaders report malformed or out-of-range
// configurations the same way. Dropping one of those errors turns a
// broken experiment input into silently wrong results — the exact
// failure mode (plausible numbers from a corrupted run) the paper's
// methodology cannot tolerate.
//
// The check: any call into a package whose import path ends in /trace
// or /config (the codec and the loaders) whose results include an
// error must consume that error. Calling for effect (an expression or
// defer statement) and assigning the error to the blank identifier are
// both flagged.
package errdiscard

import (
	"go/ast"
	"go/types"
	"strings"

	"streamsim/internal/analysis"
)

// Analyzer is the errdiscard pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdiscard",
	Doc: "flags dropped error returns from the trace codec and config " +
		"loaders (expression statements, defers, and blank assignments)",
	Run: run,
}

// targetPackages are the import-path tails whose errors must never be
// dropped.
var targetPackages = map[string]bool{"trace": true, "config": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkCall(pass, call, "")
				}
			case *ast.DeferStmt:
				checkCall(pass, n.Call, "defer ")
			case *ast.GoStmt:
				checkCall(pass, n.Call, "go ")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCall reports call when it returns an error from a target
// package and the statement form drops every result.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, form string) {
	obj, name := callee(pass, call)
	if obj == nil || !fromTargetPackage(obj) {
		return
	}
	if errorResultIndex(obj) < 0 {
		return
	}
	pass.Reportf(call.Pos(),
		"%s%s returns an error that is discarded; a corrupt trace or config must not pass silently",
		form, name)
}

// checkBlankAssign reports assignments that send a target package's
// error result to the blank identifier.
func checkBlankAssign(pass *analysis.Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	obj, name := callee(pass, call)
	if obj == nil || !fromTargetPackage(obj) {
		return
	}
	idx := errorResultIndex(obj)
	if idx < 0 || idx >= len(assign.Lhs) {
		return
	}
	if id, ok := assign.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(assign.Pos(),
			"error result of %s assigned to the blank identifier; handle it",
			name)
	}
}

// callee resolves the called function or method and a printable name.
func callee(pass *analysis.Pass, call *ast.CallExpr) (types.Object, string) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		if obj == nil {
			return nil, ""
		}
		return obj, exprName(fun.X) + "." + fun.Sel.Name
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[fun]
		if obj == nil {
			return nil, ""
		}
		return obj, fun.Name
	}
	return nil, ""
}

// fromTargetPackage reports whether obj is declared in a trace or
// config package.
func fromTargetPackage(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return targetPackages[path]
}

// errorResultIndex returns the position of the (last) error result in
// obj's signature, or -1.
func errorResultIndex(obj types.Object) int {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return -1
	}
	errType := types.Universe.Lookup("error").Type()
	res := sig.Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if types.Identical(res.At(i).Type(), errType) {
			return i
		}
	}
	return -1
}

// exprName renders the receiver side of a selector for messages.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprName(e.Fun) + "(...)"
	default:
		return "(...)"
	}
}
