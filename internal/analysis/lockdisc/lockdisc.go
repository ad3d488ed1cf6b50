// Package lockdisc checks mutex discipline in the concurrent layers
// of the simulator (the simd job service and the sweep scheduler),
// per function:
//
//  1. A Lock()/RLock() whose critical section a return statement can
//     exit without the matching deferred Unlock leaks the lock on
//     that path — the classic multi-return hazard. A Lock with no
//     Unlock at all is flagged unconditionally.
//  2. Blocking operations must not run while a lock is held: bare
//     channel sends/receives, selects without a default, Wait on
//     WaitGroup/Cond, time.Sleep, and calls into net/http. A channel
//     operation inside a select that has a default case is
//     non-blocking and allowed — that is the service pool's
//     backpressure idiom.
//
// Copying a value that holds a lock is go vet's copylocks check, which
// covers the whole module, so this analyzer does not repeat it.
//
// The critical-section model is positional (Lock position to matching
// Unlock position, or function end when deferred), which is exact for
// the straight-line lock usage this repo allows and keeps the
// analyzer dependency-free of a CFG.
package lockdisc

import (
	"go/ast"
	"go/token"
	"go/types"

	"streamsim/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:            "lockdisc",
	Doc:             "mutex discipline: deferred unlocks on early-return paths, no blocking calls under a held lock",
	PackagePrefixes: []string{"streamsim/internal/service", "streamsim/internal/sweeprun"},
	Run:             run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// region is one critical section: from the Lock call to the matching
// Unlock (function end when the unlock is deferred or missing).
type region struct {
	name     string // lock expression, e.g. "s.mu"
	lockPos  token.Pos
	end      token.Pos
	deferred bool
	unlocked bool // a plain (non-deferred) Unlock was seen
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	regions := lockRegions(pass, fd)
	if len(regions) == 0 {
		return
	}
	held := func(pos token.Pos) *region {
		for _, r := range regions {
			if pos > r.lockPos && pos < r.end {
				return r
			}
		}
		return nil
	}
	// Rule 1: returns inside a section that is not deferred-unlocked.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if r := held(ret.Pos()); r != nil && !r.deferred {
			pass.Reportf(r.lockPos, "%s.Lock() is not released by a deferred Unlock, and a return at line %d can exit with it held",
				r.name, pass.Fset.Position(ret.Pos()).Line)
		}
		return true
	})
	for _, r := range regions {
		if !r.deferred && !r.unlocked {
			pass.Reportf(r.lockPos, "%s.Lock() with no matching Unlock in this function", r.name)
		}
	}
	checkBlocking(pass, fd, held)
}

// lockRegions scans the body for Lock/RLock calls on sync mutexes and
// pairs each with its closing Unlock.
func lockRegions(pass *analysis.Pass, fd *ast.FuncDecl) []*region {
	var regions []*region
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isMutex(pass.TypesInfo.Types[sel.X].Type) {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			regions = append(regions, &region{
				name:    types.ExprString(sel.X),
				lockPos: call.Pos(),
				end:     fd.Body.End(),
			})
		}
		return true
	})
	// Close each region at its matching Unlock. Deferred unlocks hold
	// to function end by construction.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		deferred := false
		switch n := n.(type) {
		case *ast.DeferStmt:
			call = n.Call
			deferred = true
		case *ast.ExprStmt:
			c, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			call = c
		default:
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !isMutex(pass.TypesInfo.Types[sel.X].Type) {
			return true
		}
		if sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock" {
			return true
		}
		name := types.ExprString(sel.X)
		for _, r := range regions {
			if r.name != name || call.Pos() < r.lockPos || r.deferred || r.unlocked {
				continue
			}
			if deferred {
				r.deferred = true
			} else {
				r.unlocked = true
				r.end = call.Pos()
			}
			break
		}
		return true
	})
	return regions
}

// checkBlocking flags blocking operations whose position falls inside
// a held critical section.
func checkBlocking(pass *analysis.Pass, fd *ast.FuncDecl, held func(token.Pos) *region) {
	// Channel operations that are a comm clause of a select with a
	// default case never block; collect them so the walk below can
	// skip them.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if r := held(sel.Pos()); r != nil {
				pass.Reportf(sel.Pos(), "select with no default can block while %s is locked", r.name)
			}
		}
		// Comm clauses are covered by the select-level verdict either
		// way; keep the channel-op walk from reporting them again.
		for _, c := range sel.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil {
				nonBlocking[comm] = true
				if es, ok := comm.(*ast.ExprStmt); ok {
					nonBlocking[es.X] = true
				}
				if as, ok := comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
					nonBlocking[as.Rhs[0]] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if nonBlocking[n] {
			return true
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if r := held(n.Pos()); r != nil {
				pass.Reportf(n.Pos(), "channel send can block while %s is locked", r.name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonBlocking[n] {
				if r := held(n.Pos()); r != nil {
					pass.Reportf(n.Pos(), "channel receive can block while %s is locked", r.name)
				}
			}
		case *ast.CallExpr:
			if r := held(n.Pos()); r != nil {
				if what := blockingCall(pass.TypesInfo, n); what != "" {
					pass.Reportf(n.Pos(), "%s while %s is locked", what, r.name)
				}
			}
		}
		return true
	})
}

// blockingCall classifies call expressions that can block
// indefinitely: sync waits, sleeps, and anything in net/http.
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if sel.Sel.Name == "Wait" {
		if t := info.Types[sel.X].Type; t != nil && isSyncType(t, "WaitGroup", "Cond") {
			return "blocking " + types.ExprString(sel.X) + ".Wait()"
		}
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "net/http":
			return "net/http call " + fn.Name()
		case "time":
			if fn.Name() == "Sleep" {
				return "time.Sleep"
			}
		}
	}
	return ""
}

// isMutex reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return isSyncType(t, "Mutex", "RWMutex")
}

// isSyncType reports whether t is one of the named sync package types.
func isSyncType(t types.Type, names ...string) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	for _, n := range names {
		if obj.Name() == n {
			return true
		}
	}
	return false
}
