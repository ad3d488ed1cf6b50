// Nondeterminism facts: the per-function scan behind the detflow
// analyzer. A Nondet is a construct whose result depends on something
// other than the function's inputs — map iteration order, the wall
// clock, the process-global random source, or the environment — so a
// //simlint:deterministic root must not reach one.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Nondet is one nondeterministic construct found in a function body.
type Nondet struct {
	Pos  token.Pos
	What string
}

// scanNondets fills fn.Nondets. The walk covers function-literal
// bodies too: a closure's nondeterminism executes within (or on
// behalf of) the enclosing function and feeds the same output.
//
// Rules:
//
//   - ranging over a map is order-unstable, except the collect-then-
//     sort idiom (every body statement appends to a local slice that
//     is later passed to a sort/slices call in the same function);
//   - time.Now/Since/Until read the wall clock;
//   - package-level math/rand and math/rand/v2 draws use the process
//     global source (constructors like New/NewSource are exempt: the
//     walk still scans their seed argument, so a clock seed shows as
//     time.Now, and methods on a seeded *rand.Rand replay
//     deterministically);
//   - crypto/rand is nondeterministic by construction;
//   - os environment and filesystem reads depend on the host; config
//     loaders own them and are annotated //simlint:configload, which
//     stops the detflow traversal instead.
func scanNondets(fn *Func) {
	info := fn.Pkg.TypesInfo
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok || tv.Type == nil {
				break
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !sortedSliceIdiom(fn, n) {
				fn.Nondets = append(fn.Nondets, Nondet{n.Pos(), "map range with unstable iteration order"})
			}
		case *ast.CallExpr:
			if what := nondetCall(info, n); what != "" {
				fn.Nondets = append(fn.Nondets, Nondet{n.Pos(), what})
			}
		}
		return true
	})
}

// nondetCall classifies one call site, returning "" when it is
// deterministic (or unresolvable, which static edges treat as a
// deliberate seam).
func nondetCall(info *types.Info, call *ast.CallExpr) string {
	callee := StaticCallee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	if callee.Type().(*types.Signature).Recv() != nil {
		// Methods: a *rand.Rand or *os.File reached here was produced
		// by a constructor that is itself the flagged (or exempted)
		// operation.
		return ""
	}
	name := callee.Name()
	switch callee.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "wall-clock read (time." + name + ")"
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return ""
		}
		return "draw from the process-global random source (rand." + name + ")"
	case "crypto/rand":
		return "crypto/rand read (rand." + name + ")"
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return "environment read (os." + name + ")"
		case "Open", "OpenFile", "ReadFile", "ReadDir", "Stat", "Lstat",
			"Getwd", "UserHomeDir", "Hostname":
			return "filesystem/host read (os." + name + ")"
		}
	}
	return ""
}

// sortedSliceIdiom reports whether a map range is the accepted
// deterministic idiom: every statement in the body appends to a local
// slice variable, and every such variable is later passed to a
// sort/slices call in the same function. Collect-then-sort output is
// independent of iteration order.
func sortedSliceIdiom(fn *Func, rng *ast.RangeStmt) bool {
	info := fn.Pkg.TypesInfo
	var collected []types.Object
	for _, st := range rng.Body.List {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		bid, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := info.Uses[bid].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return false
		}
		collected = append(collected, obj)
	}
	if len(collected) == 0 {
		return false
	}
	for _, obj := range collected {
		if !sortedAfter(fn, obj, rng.End()) {
			return false
		}
	}
	return true
}

// sortedAfter reports whether obj appears in an argument of a call
// into package sort or slices after pos in fn's body.
func sortedAfter(fn *Func, obj types.Object, pos token.Pos) bool {
	info := fn.Pkg.TypesInfo
	found := false
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		callee := StaticCallee(info, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
