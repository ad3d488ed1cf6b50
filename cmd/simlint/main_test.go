package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"streamsim/internal/analysis"
)

func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != len(analyzers) {
		t.Fatalf("selectAnalyzers(\"\") = %d analyzers, err %v; want %d", len(all), err, len(analyzers))
	}
	two, err := selectAnalyzers("lockdisc, detflow")
	if err != nil {
		t.Fatalf("selectAnalyzers: %v", err)
	}
	if len(two) != 2 || two[0].Name != "lockdisc" || two[1].Name != "detflow" {
		t.Fatalf("selectAnalyzers picked %v", two)
	}
	if _, err := selectAnalyzers("nosuch"); err == nil {
		t.Fatal("selectAnalyzers accepted an unknown analyzer")
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
	// The analyzer order is the reverse of the message order at the
	// shared position, so the check below tells the two keys apart.
	early, late := &analysis.Analyzer{Name: "alpha"}, &analysis.Analyzer{Name: "beta"}
	findings := []analysis.Finding{
		mk(early, fb.Pos(10), "later file"),
		mk(early, fa.Pos(10), "zzz same pos, earlier analyzer"),
		mk(late, fa.Pos(10), "same pos, later analyzer"),
		mk(late, fa.Pos(10), "same pos, later analyzer"), // exact duplicate
		mk(late, fa.Pos(2), "earlier line"),
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
	if records[1].Analyzer != "alpha" || records[2].Analyzer != "beta" {
		t.Errorf("same-position records not analyzer-ordered: %+v", records)
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
