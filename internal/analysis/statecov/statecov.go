// Package statecov enforces snapshot completeness at compile time: a
// handler whose doc comment carries //simlint:statefull <class> must
// read or write every field of its //simlint:state struct, transitively
// through static callees. The runtime equivalence tests catch a
// forgotten field only on the configs they happen to exercise; this
// analyzer names the field the moment the handler stops covering it —
// adding a field to System without teaching Fork/Checkpoint about it
// becomes a build failure, not a silent divergence between sharded and
// sequential replay.
//
// Every handler class (fork, clone, checkpoint, restore) is a deep
// copy, so every field of the subject struct is required: a snapshot
// that drops a field resumes from the wrong state. Statistics need no
// class of their own — they are one plain value per system that a
// deep copy carries like any other field, and whose merge is a
// leaf-wise sum over uint64 counts (core.System.Merge).
//
// //simlint:statederived <field> [class ...] on the struct exempts a
// field that is recomputed on read or deliberately owned elsewhere.
//
// Coverage facts come from the shared call graph (see
// callgraph.Func.StateUses for what counts as a use); the closure
// walks every static callee, so a handler may delegate per-component
// work (n.bind()) and still get credit for the fields the delegate
// touches.
package statecov

import (
	"fmt"
	"go/ast"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:            "statecov",
	Doc:             "//simlint:statefull handlers must cover every field of their //simlint:state struct",
	PackagePrefixes: []string{"streamsim/internal"},
	Facts:           callgraph.Facts,
	FactsKey:        callgraph.FactsKey,
	Run:             run,
}

func run(pass *analysis.Pass) error {
	g := callgraph.From(pass)
	if g == nil {
		return fmt.Errorf("statecov requires call-graph facts")
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn := g.Decls[fd]; fn != nil && fn.StatefullClass != "" {
				checkHandler(pass, g, fn)
			}
		}
	}
	return nil
}

func checkHandler(pass *analysis.Pass, g *callgraph.Graph, fn *callgraph.Func) {
	class := fn.StatefullClass
	if !callgraph.StatefullClasses[class] {
		// Unknown class: the directives analyzer owns the spelling
		// diagnostic; without a class there is no required set.
		return
	}
	subject := g.StateSubject(fn)
	if subject == nil {
		pass.Reportf(fn.Decl.Name.Pos(),
			"%s is //simlint:statefull %s but neither its receiver nor any parameter is a //simlint:state struct",
			fn.Short(), class)
		return
	}
	covered := closureUses(fn, subject.Key)
	if covered["*"] {
		// A whole-value use (*p copy, empty literal) covers every
		// field at once.
		return
	}
	for _, f := range subject.Fields {
		if covered[f.Name] || subject.DerivedFor(f.Name, class) {
			continue
		}
		pass.Reportf(fn.Decl.Name.Pos(),
			"%s is //simlint:statefull %s but never reads or writes %s.%s, not even through its static callees; handle the field or exempt it with //simlint:statederived",
			fn.Short(), class, subject.Short(), f.Name)
	}
}

// closureUses unions the StateUses of state struct key over everything
// statically reachable from root. Unlike hotpath, the walk does not
// stop at other statefull handlers: delegation (snapshotSystem calling
// Fork) is exactly how coverage is earned.
func closureUses(root *callgraph.Func, key string) map[string]bool {
	uses := map[string]bool{}
	seen := map[*callgraph.Func]bool{root: true}
	queue := []*callgraph.Func{root}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for f := range fn.StateUses[key] {
			uses[f] = true
		}
		for _, call := range fn.Calls {
			if !seen[call.Callee] {
				seen[call.Callee] = true
				queue = append(queue, call.Callee)
			}
		}
	}
	return uses
}
