// Package directives makes every //simlint:* comment a checked
// artifact. Annotations are load-bearing in this repo — hotpath and
// detflow prove invariants from them, borrowck trusts them across
// calls, ignore suppresses findings — so a misspelled verb, an
// argument that no longer names anything, or a directive orphaned by
// a refactor must be a lint error, not a silently dead marker.
//
// Rules, per directive:
//
//   - the verb must be one of ignore, hotpath, coldpath,
//     deterministic, configload, borrowed, state, statefull,
//     statederived;
//   - ignore must name known analyzers (or "all") in the canonical
//     comma-separated form the suppression matcher reads;
//   - hotpath, coldpath, deterministic and configload must sit in a
//     function declaration's doc comment and take no arguments —
//     arguments are only meaningful in _test.go gate files, which the
//     simlint driver never loads (the static-vs-gate match tests
//     validate those);
//   - borrowed must sit in a function declaration's doc comment and
//     every argument must name that function's receiver or one of its
//     parameters;
//   - state must sit in a struct type declaration's doc comment and
//     take no arguments;
//   - statefull must sit in a function declaration's doc comment with
//     exactly one known handler class;
//   - statederived must accompany a //simlint:state directive on the
//     same struct, its first argument must name a field of that
//     struct, and any further arguments must be known classes.
//
// The analyzer needs no call-graph facts: every rule is local to the
// package under analysis, so it runs on all packages (including cmd/
// and test fixtures' host packages) for free.
package directives

import (
	"go/ast"
	"go/token"
	"strings"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/callgraph"
)

// KnownAnalyzers is every analyzer name an //simlint:ignore may
// suppress. cmd/simlint asserts this list matches its suite, so a
// renamed analyzer cannot silently orphan its suppressions.
var KnownAnalyzers = []string{
	"seededrand", "pow2size", "errdiscard", "hotpath", "ctxflow",
	"lockdisc", "borrowck", "detflow", "directives", "statecov",
}

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
	known := map[string]bool{"all": true}
	for _, n := range KnownAnalyzers {
		known[n] = true
	}
	for _, file := range pass.Files {
		// Map each doc comment back to its function or type
		// declaration, to tell an attached directive from an orphaned
		// one. For types, the group is kept too: statederived must
		// accompany a state directive in the same doc comment.
		docOf := map[*ast.Comment]*ast.FuncDecl{}
		typeOf := map[*ast.Comment]*ast.TypeSpec{}
		groupOf := map[*ast.Comment]*ast.CommentGroup{}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Doc == nil {
					continue
				}
				for _, c := range d.Doc.List {
					docOf[c] = d
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						typeOf[c] = ts
						groupOf[c] = doc
					}
				}
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
				case verb == "ignore":
					checkIgnore(pass, c, args, known)
				case funcVerbs[verb]:
					switch {
					case docOf[c] == nil:
						pass.Reportf(c.Pos(), "//simlint:%s is not attached to a function declaration; the annotation is dead", verb)
					case len(args) > 0:
						pass.Reportf(c.Pos(), "//simlint:%s takes no arguments outside _test.go gate files", verb)
					}
				case verb == "borrowed":
					checkBorrowed(pass, c, args, docOf[c])
				case verb == "state":
					checkState(pass, c, args, typeOf[c])
				case verb == "statefull":
					checkStatefull(pass, c, args, docOf[c])
				case verb == "statederived":
					checkStatederived(pass, c, args, typeOf[c], groupOf[c])
				default:
					pass.Reportf(c.Pos(), "unknown simlint directive %q", verb)
				}
			}
		}
	}
	return nil
}

// checkIgnore validates a suppression: known analyzer names in the
// exact comma-separated form the suppression matcher parses.
func checkIgnore(pass *analysis.Pass, c *ast.Comment, args []string, known map[string]bool) {
	if len(args) == 0 {
		pass.Reportf(c.Pos(), "//simlint:ignore names no analyzers; say which findings are waived")
		return
	}
	list := strings.Fields(strings.TrimPrefix(c.Text, "//simlint:ignore"))
	for i, f := range list {
		// "//" starts an embedded remark, same as SplitDirective.
		if strings.HasPrefix(f, "//") {
			list = list[:i]
			break
		}
	}
	if len(list) != 1 || list[0] != strings.Join(args, ",") {
		pass.Reportf(c.Pos(), "//simlint:ignore list must be one comma-separated token without spaces (the suppression matcher reads only the first token)")
		return
	}
	for _, name := range args {
		if !known[name] {
			pass.Reportf(c.Pos(), "//simlint:ignore names unknown analyzer %q", name)
		}
	}
}

// checkState validates a state-struct marker: attached to a struct
// type declaration, without arguments.
func checkState(pass *analysis.Pass, c *ast.Comment, args []string, ts *ast.TypeSpec) {
	if ts == nil {
		pass.Reportf(c.Pos(), "//simlint:state is not attached to a type declaration; the annotation is dead")
		return
	}
	if _, ok := ts.Type.(*ast.StructType); !ok {
		pass.Reportf(c.Pos(), "//simlint:state must annotate a struct type; %s is not a struct", ts.Name.Name)
		return
	}
	if len(args) > 0 {
		pass.Reportf(c.Pos(), "//simlint:state takes no arguments")
	}
}

// checkStatefull validates a handler marker: attached to a function
// declaration with exactly one known class.
func checkStatefull(pass *analysis.Pass, c *ast.Comment, args []string, fd *ast.FuncDecl) {
	if fd == nil {
		pass.Reportf(c.Pos(), "//simlint:statefull is not attached to a function declaration; the annotation is dead")
		return
	}
	if len(args) != 1 {
		pass.Reportf(c.Pos(), "//simlint:statefull needs exactly one class argument (fork, clone, checkpoint or restore)")
		return
	}
	if !callgraph.StatefullClasses[args[0]] {
		pass.Reportf(c.Pos(), "//simlint:statefull names unknown class %q", args[0])
	}
}

// checkStatederived validates a coverage exemption: it must ride on a
// //simlint:state struct, name one of its fields, and restrict itself
// to known classes.
func checkStatederived(pass *analysis.Pass, c *ast.Comment, args []string, ts *ast.TypeSpec, group *ast.CommentGroup) {
	if ts == nil {
		pass.Reportf(c.Pos(), "//simlint:statederived is not attached to a type declaration; the annotation is dead")
		return
	}
	st, isStruct := ts.Type.(*ast.StructType)
	hasState := false
	for _, cc := range group.List {
		if verb, _ := callgraph.SplitDirective(cc.Text); verb == "state" {
			hasState = true
		}
	}
	if !isStruct || !hasState {
		pass.Reportf(c.Pos(), "//simlint:statederived on %s is orphaned: the type carries no //simlint:state directive", ts.Name.Name)
		return
	}
	if len(args) == 0 {
		pass.Reportf(c.Pos(), "//simlint:statederived names no field; say which field is exempt")
		return
	}
	fields := map[string]bool{}
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			fields[id.Name] = true
		}
		if len(f.Names) == 0 {
			if name := embeddedFieldName(f.Type); name != "" {
				fields[name] = true
			}
		}
	}
	if !fields[args[0]] {
		pass.Reportf(c.Pos(), "//simlint:statederived names %q, which is not a field of %s", args[0], ts.Name.Name)
	}
	for _, class := range args[1:] {
		if !callgraph.StatefullClasses[class] {
			pass.Reportf(c.Pos(), "//simlint:statederived names unknown class %q", class)
		}
	}
}

// embeddedFieldName resolves the implicit field name of an embedded
// struct field.
func embeddedFieldName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return embeddedFieldName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
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
