// Package directives makes every //simlint:* comment a checked
// artifact. Annotations are load-bearing in this repo — hotpath and
// detflow prove invariants from them, borrowck trusts them across
// calls — so a misspelled verb, an argument that no longer names
// anything, or a directive orphaned by a refactor must be a lint
// error, not a silently dead marker.
//
// Rules, per directive:
//
//   - the verb must be one of hotpath, coldpath, deterministic,
//     configload, borrowed (there is no waiver verb: a finding is
//     fixed, not suppressed);
//   - hotpath, coldpath, deterministic and configload must sit in a
//     function declaration's doc comment and take no arguments —
//     arguments are only meaningful in _test.go gate files, which the
//     simlint driver never loads (the static-vs-gate match tests
//     validate those);
//   - borrowed must sit in a function declaration's doc comment and
//     every argument must name that function's receiver or one of its
//     parameters.
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
	"hotpath":       true,
	"coldpath":      true,
	"deterministic": true,
	"configload":    true,
}

var Analyzer = &analysis.Analyzer{
	Name: "directives",
	Doc:  "every //simlint:* comment must parse, resolve and attach to a declaration",
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
				case verb == "borrowed":
					checkBorrowed(pass, c, args, docOf[c])
				default:
					pass.Reportf(c.Pos(), "unknown simlint directive %q", verb)
				}
			}
		}
	}
	return nil
}

// checkBorrowed validates a borrow annotation: attached to a function
// declaration, with every argument naming its receiver or a
// parameter.
func checkBorrowed(pass *analysis.Pass, c *ast.Comment, args []string, fd *ast.FuncDecl) {
	if fd == nil {
		pass.Reportf(c.Pos(), "//simlint:borrowed is not attached to a function declaration; the annotation is dead")
		return
	}
	if len(args) == 0 {
		pass.Reportf(c.Pos(), "//simlint:borrowed names no parameters; say which values are lent")
		return
	}
	names := map[string]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				names[id.Name] = true
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	for _, name := range args {
		if !names[name] {
			pass.Reportf(c.Pos(), "//simlint:borrowed names %q, which is not a receiver or parameter of %s", name, fd.Name.Name)
		}
	}
}
