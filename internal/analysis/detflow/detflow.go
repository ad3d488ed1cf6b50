// Package detflow enforces the reproduction's determinism invariant
// at compile time: a function whose doc comment carries
// //simlint:deterministic — the experiment runners, sweeprun.Run, the
// trace codec, service job execution — must transitively avoid
// constructs whose result depends on anything but its inputs. The
// byte-identical equivalence tests catch a violation after the fact;
// this analyzer names the construct and the call chain that reaches
// it before any table drifts.
//
// What counts as nondeterministic is the callgraph package's Nondet
// scan: map ranges with unstable iteration order (the collect-then-
// sort idiom is recognized and allowed), wall-clock reads, draws from
// the process global random source, and environment or filesystem
// reads.
//
// The transitive closure follows static call edges and stops at:
//
//   - other //simlint:deterministic functions — verified as their own
//     roots, so by induction a deterministic root may call one;
//   - //simlint:configload functions — the deliberate escape hatch
//     for config loaders that own their os.Open/Getenv calls;
//   - dynamic calls (interface methods, func values) — the same seam
//     every call-graph analyzer draws.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:            "detflow",
	Doc:             "//simlint:deterministic functions must be transitively free of nondeterminism",
	PackagePrefixes: []string{"streamsim/internal"},
	Facts:           callgraph.Facts,
	FactsKey:        callgraph.FactsKey,
	Run:             run,
}

func run(pass *analysis.Pass) error {
	g := callgraph.From(pass)
	if g == nil {
		return fmt.Errorf("detflow requires call-graph facts")
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn := g.Decls[fd]; fn != nil && fn.Deterministic {
				checkRoot(pass, fn)
			}
		}
	}
	return nil
}

// step records how the BFS first reached a function, so a finding can
// be reported with its full call chain.
type step struct {
	from *callgraph.Func
	pos  token.Pos // call site in `from`
}

// checkRoot walks everything statically reachable from root and
// reports each nondeterministic construct with the chain root → … →
// callee.
func checkRoot(pass *analysis.Pass, root *callgraph.Func) {
	parent := map[*callgraph.Func]step{}
	queue := []*callgraph.Func{root}
	seen := map[*callgraph.Func]bool{root: true}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, nd := range fn.Nondets {
			report(pass, root, parent, fn, nd)
		}
		for _, call := range fn.Calls {
			callee := call.Callee
			if seen[callee] || callee.Deterministic || callee.ConfigLoad {
				continue
			}
			seen[callee] = true
			parent[callee] = step{from: fn, pos: call.Pos}
			queue = append(queue, callee)
		}
	}
}

// report emits one diagnostic for a nondeterministic construct in fn,
// reached from root, anchored at the deepest position along the chain
// that still lies in the package being analyzed.
func report(pass *analysis.Pass, root *callgraph.Func, parent map[*callgraph.Func]step, fn *callgraph.Func, nd callgraph.Nondet) {
	// Reconstruct root → … → fn.
	var chain []*callgraph.Func
	var sites []token.Pos // sites[i] is the call site in chain[i] invoking chain[i+1]
	for at := fn; at != root; {
		st := parent[at]
		chain = append([]*callgraph.Func{at}, chain...)
		sites = append([]token.Pos{st.pos}, sites...)
		at = st.from
	}
	chain = append([]*callgraph.Func{root}, chain...)

	anchor := nd.Pos
	if fn.Pkg != pass.Pkg {
		anchor = sites[len(sites)-1]
		for i := len(chain) - 2; i >= 0; i-- {
			if chain[i].Pkg == pass.Pkg {
				anchor = sites[i]
				break
			}
		}
	}
	p := pass.Fset.Position(nd.Pos)
	where := fmt.Sprintf("%s (%s:%d)", nd.What, filepath.Base(p.Filename), p.Line)
	if len(chain) == 1 {
		pass.Reportf(anchor, "%s is //simlint:deterministic but contains a nondeterministic construct: %s",
			root.Short(), where)
		return
	}
	path := root.Short()
	for _, f := range chain[1:] {
		path += " → " + f.Short()
	}
	pass.Reportf(anchor, "%s is //simlint:deterministic but reaches a nondeterministic construct via %s: %s",
		root.Short(), path, where)
}
