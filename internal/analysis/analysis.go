// Package analysis is a self-contained, dependency-free miniature of
// golang.org/x/tools/go/analysis: just enough driver machinery to write
// the simulator's custom invariant checkers (cmd/simlint) against the
// standard library's go/ast and go/types.
//
// The shape deliberately mirrors the upstream API (Analyzer, Pass,
// Diagnostic, Reportf) so the analyzers can be ported to the real
// framework wholesale if the x/tools dependency ever becomes available;
// until then the module stays dependency-free and the toolchain already
// in the build image is all that is needed.
//
// Type information comes from compiler export data produced by
// `go list -export` (see Load), exactly as production multicheckers do,
// so analyzers see fully type-checked packages without re-checking the
// whole dependency graph from source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in simlint's
	// -only flag. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `simlint -list`.
	Doc string
	// PackagePrefixes restricts the driver to packages whose import
	// path starts with one of these prefixes. Empty means every
	// package. Tests bypass the filter and exercise the analyzer
	// directly on testdata packages.
	PackagePrefixes []string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
	// Facts, if set, is invoked once per suite run over every loaded
	// package and its result is handed to each Pass as ModuleFacts.
	// This is how flow-aware analyzers see across package boundaries:
	// the facts builder walks the whole module, the per-package Run
	// only reports.
	Facts func(pkgs []*Package) (any, error)
	// FactsKey names the facts bundle. Analyzers sharing a key share
	// one Facts invocation per RunSuite call (func values are not
	// comparable, so memoization is by key). Required when Facts is
	// set.
	FactsKey string
}

// AppliesTo reports whether the driver should run the analyzer on the
// package with the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.PackagePrefixes) == 0 {
		return true
	}
	for _, p := range a.PackagePrefixes {
		if strings.HasPrefix(pkgPath, p) {
			return true
		}
	}
	return false
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Pkg is the loaded package, including type information.
	Pkg    *Package
	Report func(Diagnostic)
	// TypesInfo is Pkg's expression/identifier type information,
	// hoisted for x/tools-style pass.TypesInfo access.
	TypesInfo *types.Info
	// ModuleFacts is the result of Analyzer.Facts over the whole
	// loaded package set (nil when the analyzer declares no Facts).
	ModuleFacts any
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos falls in a _test.go file; most
// analyzers exempt test code.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// RunAnalyzerFacts executes a over pkg with the module facts supplied
// by the caller (nil when the analyzer declares no Facts) and returns
// its diagnostics sorted by position.
func RunAnalyzerFacts(a *Analyzer, pkg *Package, facts any) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:    a,
		Fset:        pkg.Fset,
		Files:       pkg.Files,
		Pkg:         pkg,
		TypesInfo:   pkg.TypesInfo,
		ModuleFacts: facts,
		Report:      func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// Finding is one diagnostic paired with the analyzer and package that
// produced it, as returned by RunSuite.
type Finding struct {
	Analyzer *Analyzer
	Pkg      *Package
	Diag     Diagnostic
}

// RunSuite runs every applicable analyzer over every package. Module
// facts are computed once per FactsKey over the full package set, so
// analyzers that share a facts layer (the call graph) compose without
// rebuilding it. Findings come back grouped by package (in the loaded
// order) and sorted by position within each analyzer's output.
func RunSuite(pkgs []*Package, suite []*Analyzer) ([]Finding, error) {
	factsByKey := map[string]any{}
	for _, a := range suite {
		if a.Facts == nil {
			continue
		}
		if a.FactsKey == "" {
			return nil, fmt.Errorf("%s: Facts set without FactsKey", a.Name)
		}
		if _, done := factsByKey[a.FactsKey]; done {
			continue
		}
		facts, err := a.Facts(pkgs)
		if err != nil {
			return nil, fmt.Errorf("%s: facts %q: %w", a.Name, a.FactsKey, err)
		}
		factsByKey[a.FactsKey] = facts
	}
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range suite {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			diags, err := RunAnalyzerFacts(a, pkg, factsByKey[a.FactsKey])
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				out = append(out, Finding{Analyzer: a, Pkg: pkg, Diag: d})
			}
		}
	}
	return out, nil
}
