package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/directives"
)

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("", "")
	if err != nil || len(all) != len(analyzers) {
		t.Fatalf("selectAnalyzers(\"\", \"\") = %d analyzers, err %v; want %d", len(all), err, len(analyzers))
	}
	two, err := selectAnalyzers("seededrand, detflow", "")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	if len(two) != 2 || two[0].Name != "seededrand" || two[1].Name != "detflow" {
		t.Fatalf("selectAnalyzers picked %v", two)
	}
	skipped, err := selectAnalyzers("", "hotpath, ctxflow")
	if err != nil {
		t.Fatalf("selectAnalyzers(skip): %v", err)
	}
	if len(skipped) != len(analyzers)-2 {
		t.Fatalf("skip left %d analyzers, want %d", len(skipped), len(analyzers)-2)
	}
	for _, a := range skipped {
		if a.Name == "hotpath" || a.Name == "ctxflow" {
			t.Errorf("skipped analyzer %s still selected", a.Name)
		}
	}
	both, err := selectAnalyzers("hotpath,lockdisc", "hotpath")
	if err != nil {
		t.Fatalf("selectAnalyzers(only+skip): %v", err)
	}
	if len(both) != 1 || both[0].Name != "lockdisc" {
		t.Fatalf("only+skip picked %v", both)
	}
	if _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Fatal("selectAnalyzers accepted an unknown analyzer")
	}
	if _, err := selectAnalyzers("", "nosuch"); err == nil {
		t.Fatal("selectAnalyzers accepted an unknown skip")
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, stderr.String())
	}
	for _, a := range analyzers {
		if !strings.Contains(stdout.String(), a.Name) {
			t.Errorf("-list output missing analyzer %s", a.Name)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("sim.go", -1, 100)
	finding := analysis.Finding{
		Analyzer: analyzers[0],
		Pkg:      &analysis.Package{Fset: fset},
		Diag:     analysis.Diagnostic{Pos: f.Pos(10), Message: "boom"},
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, toRecords([]analysis.Finding{finding}, "/nowhere")); err != nil {
		t.Fatal(err)
	}
	var got []record
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 1 || got[0].File != "sim.go" || got[0].Line != 1 ||
		got[0].Analyzer != analyzers[0].Name || got[0].Message != "boom" {
		t.Fatalf("decoded %+v", got)
	}
	buf.Reset()
	if err := writeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("empty findings encode as %q, want []", buf.String())
	}
}

// TestRecordOrderingAndDedup locks in the diff-stability contract:
// records sort by file, line, column, analyzer and message, and exact
// duplicates collapse to one.
func TestRecordOrderingAndDedup(t *testing.T) {
	fset := token.NewFileSet()
	fb := fset.AddFile("b.go", -1, 100)
	fa := fset.AddFile("a.go", -1, 100)
	pkg := &analysis.Package{Fset: fset}
	mk := func(a *analysis.Analyzer, pos token.Pos, msg string) analysis.Finding {
		return analysis.Finding{Analyzer: a, Pkg: pkg, Diag: analysis.Diagnostic{Pos: pos, Message: msg}}
	}
	findings := []analysis.Finding{
		mk(analyzers[1], fb.Pos(10), "later file"),
		mk(analyzers[1], fa.Pos(10), "zzz same pos, later analyzer... or not"),
		mk(analyzers[0], fa.Pos(10), "same pos, first analyzer"),
		mk(analyzers[0], fa.Pos(10), "same pos, first analyzer"), // exact duplicate
		mk(analyzers[0], fa.Pos(2), "earlier line"),
	}
	records := toRecords(findings, "/nowhere")
	if len(records) != 4 {
		t.Fatalf("got %d records, want 4 (duplicate dropped): %+v", len(records), records)
	}
	wantFiles := []string{"a.go", "a.go", "a.go", "b.go"}
	for i, r := range records {
		if r.File != wantFiles[i] {
			t.Fatalf("record %d in file %s, want %s (%+v)", i, r.File, wantFiles[i], records)
		}
	}
	if records[0].Line != 1 {
		t.Errorf("records not line-ordered: %+v", records)
	}
	if records[1].Analyzer != "pow2size" || records[2].Analyzer != "seededrand" {
		t.Errorf("same-position records not analyzer-ordered: %+v", records)
	}
}

// TestBaselineRoundTrip covers -write-baseline/-baseline: a saved
// baseline waives exactly its recorded findings, by file, analyzer
// and message — not by line, so findings that merely move stay
// waived.
func TestBaselineRoundTrip(t *testing.T) {
	records := []record{
		{File: "a.go", Line: 3, Col: 1, Analyzer: "seededrand", Message: "m1"},
		{File: "a.go", Line: 9, Col: 1, Analyzer: "detflow", Message: "m2"},
	}
	path := t.TempDir() + "/baseline.json"
	if err := saveBaseline(path, records); err != nil {
		t.Fatal(err)
	}
	waived, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	moved := []record{
		{File: "a.go", Line: 30, Col: 7, Analyzer: "seededrand", Message: "m1"}, // moved: still waived
		{File: "a.go", Line: 9, Col: 1, Analyzer: "detflow", Message: "m3"},     // new message: kept
	}
	got := filterBaseline(moved, waived)
	if len(got) != 1 || got[0].Message != "m3" {
		t.Fatalf("filterBaseline kept %+v, want only m3", got)
	}
}

// TestSuiteMatchesDirectivesList keeps the directives analyzer's
// hard-coded name list in lockstep with the registered suite, so a
// renamed or added analyzer cannot silently invalidate
// //simlint:ignore validation.
func TestSuiteMatchesDirectivesList(t *testing.T) {
	suite := map[string]bool{}
	for _, a := range analyzers {
		suite[a.Name] = true
	}
	listed := map[string]bool{}
	for _, n := range directives.KnownAnalyzers {
		listed[n] = true
		if !suite[n] {
			t.Errorf("directives.KnownAnalyzers lists %q, which is not in the simlint suite", n)
		}
	}
	for _, a := range analyzers {
		if !listed[a.Name] {
			t.Errorf("analyzer %q is missing from directives.KnownAnalyzers", a.Name)
		}
	}
}

// TestRepoIsClean locks in the tentpole's acceptance criterion from the
// driver's own test suite: the simulator sources must be free of
// findings. It lints a representative slice of the hot paths rather
// than ./... to keep the test fast.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain via go list")
	}
	findings, err := Lint("../..", analyzers,
		"./internal/core/...", "./internal/mem/...", "./internal/cache/...")
	if err != nil {
		t.Fatalf("Lint: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s: [%s] %s",
			f.Pkg.Fset.Position(f.Diag.Pos), f.Analyzer.Name, f.Diag.Message)
	}
}
