// Package directives makes every //simlint:* comment a checked
// artifact. Annotations are load-bearing in this repo — detflow proves
// its invariant from them — so a misspelled verb, a retired verb, or a
// directive orphaned by a refactor must be a lint error, not a
// silently dead marker.
//
// Rules, per directive:
//
//   - the verb must be deterministic or configload (there is no waiver
//     verb: a finding is fixed, not suppressed);
//   - it must sit in a function declaration's doc comment and take no
//     arguments — arguments are only meaningful in _test.go gate
//     files, which the simlint driver never loads (the static-vs-gate
//     match test validates those).
//
// The analyzer needs no call-graph facts: every rule is local to the
// package under analysis, so it runs on all packages (including cmd/
// and test fixtures' host packages) for free.
package directives

import (
	"go/ast"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/callgraph"
)

// funcVerbs are the verbs that mark a function declaration.
var funcVerbs = map[string]bool{
	"deterministic": true,
	"configload":    true,
}

var Analyzer = &analysis.Analyzer{
	Name: "directives",
	Doc:  "every //simlint:* comment must parse and attach to a declaration",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		// Map each doc comment back to its function declaration, to
		// tell an attached directive from an orphaned one.
		docOf := map[*ast.Comment]*ast.FuncDecl{}
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Doc == nil {
				continue
			}
			for _, c := range d.Doc.List {
				docOf[c] = d
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !callgraph.IsDirective(c.Text) || pass.InTestFile(c.Pos()) {
					continue
				}
				verb, args := callgraph.SplitDirective(c.Text)
				switch {
				case verb == "":
					pass.Reportf(c.Pos(), "empty simlint directive")
				case funcVerbs[verb]:
					switch {
					case docOf[c] == nil:
						pass.Reportf(c.Pos(), "//simlint:%s is not attached to a function declaration; the annotation is dead", verb)
					case len(args) > 0:
						pass.Reportf(c.Pos(), "//simlint:%s takes no arguments outside _test.go gate files", verb)
					}
				default:
					pass.Reportf(c.Pos(), "unknown simlint directive %q", verb)
				}
			}
		}
	}
	return nil
}
