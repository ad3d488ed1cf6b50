package bench

import (
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/callgraph"
)

// gateFiles hold the repo's runtime allocation gates: benchmarks run
// with -benchmem and tests asserting testing.AllocsPerRun == 0. Each
// gate carries a `//simlint:hotpath <function>` directive naming the
// simulator entry point it exercises, in types.Func.FullName form.
var gateFiles = []string{
	"bench_test.go",
	"internal/core/alloc_test.go",
	"internal/timing/alloc_test.go",
	"internal/workload/cancel_test.go",
}

// TestHotpathStaticMatchesAllocGates ties the two halves of the
// zero-allocation story together. The static half is the set of
// //simlint:hotpath-annotated functions that cmd/simlint's hotpath
// analyzer proves transitively free of allocating constructs. The
// runtime half is the set of entry points the gate files drive under an
// allocation counter. This test asserts they describe the same code:
//
//  1. every root a gate file declares resolves to a function in the
//     module call graph (no stale directives after a rename), and
//  2. every //simlint:hotpath-annotated function is reachable from
//     some declared root — i.e. the static guarantee never covers code
//     that no runtime gate measures.
//
// Directives in _test.go files are invisible to the simlint driver
// (package loading excludes test files), so naming a root here imposes
// no static obligation on the benchmarks themselves.
func TestHotpathStaticMatchesAllocGates(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the module via go list")
	}
	pkgs, err := analysis.Load(".", "./internal/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	g := callgraph.Build(pkgs)

	roots := gateRoots(t)
	if len(roots) == 0 {
		t.Fatal("no //simlint:hotpath directives found in the gate files")
	}

	// Rule 1: every declared root must exist in the graph.
	reached := map[*callgraph.Func]bool{}
	var frontier []*callgraph.Func
	for _, name := range roots {
		fn, ok := g.Funcs[name]
		if !ok {
			t.Errorf("gate directive names %s, which is not in the module call graph (renamed or removed?)", name)
			continue
		}
		if !reached[fn] {
			reached[fn] = true
			frontier = append(frontier, fn)
		}
	}

	// Transitive closure over static call edges from the gate roots.
	for len(frontier) > 0 {
		fn := frontier[0]
		frontier = frontier[1:]
		for _, call := range fn.Calls {
			if call.Callee != nil && !reached[call.Callee] {
				reached[call.Callee] = true
				frontier = append(frontier, call.Callee)
			}
		}
	}

	// Rule 2: every statically-verified hot path is runtime-gated.
	var uncovered []string
	for name, fn := range g.Funcs {
		if fn.Hotpath && !reached[fn] {
			uncovered = append(uncovered, name)
		}
	}
	sort.Strings(uncovered)
	for _, name := range uncovered {
		t.Errorf("%s is //simlint:hotpath but unreachable from every alloc-gated entry point; add a gate or drop the annotation", name)
	}
}

// gateRoots parses the gate files and collects the function names
// declared by their //simlint:hotpath directives.
func gateRoots(t *testing.T) []string {
	t.Helper()
	const prefix = "//simlint:hotpath "
	var roots []string
	fset := token.NewFileSet()
	for _, path := range gateFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, prefix); ok {
					name := strings.TrimSpace(rest)
					if name == "" {
						t.Errorf("%s: bare //simlint:hotpath directive; gate files must name the entry point", fset.Position(c.Pos()))
						continue
					}
					roots = append(roots, name)
				}
			}
		}
	}
	return roots
}
