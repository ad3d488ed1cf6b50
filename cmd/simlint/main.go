// Command simlint is the simulator's invariant checker: a multichecker
// driver for the custom static-analysis passes in internal/analysis.
//
// Each pass encodes an invariant of the paper's methodology that the
// type system, go vet and the tests cannot hold:
//
//	errdiscard  no dropped trace/config errors
//	hotpath     //simlint:hotpath functions transitively allocation-free
//	ctxflow     received contexts flow onward; no stray Background/TODO
//	lockdisc    mutex discipline in the service and sweep layers
//	borrowck    //simlint:borrowed parameters not retained past the call
//	detflow     //simlint:deterministic roots transitively deterministic
//	directives  every //simlint:* comment parses, resolves and attaches
//
// The call-graph-aware passes (hotpath, ctxflow, borrowck, detflow)
// share one set of module facts (internal/analysis/callgraph) built
// per run over every loaded package.
//
// Some invariants need no pass because something else holds them:
// power-of-two geometry is refused at construction (mem.NewGeometry,
// cache.Config.Validate and core.Config.Validate, which core.New
// runs); seeded randomness is pinned by the workload determinism
// golden, the batched-vs-scalar replay test and the optimizer's
// scratch-vs-incremental test; lock copies are go vet's copylocks. The
// bandwidth ledger and the memory-traffic hook move in lockstep
// because core counts each off-chip block in the one function that
// posts it (System.writeBack, System.fetch), on every replay path; and
// every snapshot copy (Fork, Checkpoint, Restore and the component
// Clones) starts from a value copy of its struct, so it carries each
// field by default, and one reflect test in internal/core walks the
// copies for shared references.
//
// Usage:
//
//	simlint [-list] [-json] [-only name,name] [packages]
//
// Packages default to ./...; findings are sorted by file/line/column/
// analyzer and exactly-duplicate findings are dropped, so -json output
// is diff-stable. There is no waiver: a finding is fixed, not
// suppressed. The exit status is 0 when clean, 1 when findings were
// reported, 2 on usage or load errors. `make lint` and CI run it over
// the whole repository.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"streamsim/internal/analysis"
	"streamsim/internal/analysis/borrowck"
	"streamsim/internal/analysis/ctxflow"
	"streamsim/internal/analysis/detflow"
	"streamsim/internal/analysis/directives"
	"streamsim/internal/analysis/errdiscard"
	"streamsim/internal/analysis/hotpath"
	"streamsim/internal/analysis/lockdisc"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	errdiscard.Analyzer,
	hotpath.Analyzer,
	ctxflow.Analyzer,
	lockdisc.Analyzer,
	borrowck.Analyzer,
	detflow.Analyzer,
	directives.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the driver; separated from main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default all)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := Lint(".", suite, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	records := toRecords(findings, mustAbs("."))
	if *jsonOut {
		if err := writeJSON(stdout, records); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, r := range records {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", r.File, r.Line, r.Col, r.Analyzer, r.Message)
		}
	}
	if len(records) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s)\n", len(records))
		return 1
	}
	return 0
}

// record is one finding in driver form: a repo-relative path and the
// fields both output modes (text, JSON) agree on.
type record struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// toRecords converts suite findings to records: paths relativized to
// baseDir, sorted by file/line/col/analyzer/message, exact duplicates
// dropped. The order is a total one over every field that reaches the
// output, so -json is diff-stable run to run.
func toRecords(findings []analysis.Finding, baseDir string) []record {
	out := make([]record, 0, len(findings))
	for _, f := range findings {
		pos := f.Pkg.Fset.Position(f.Diag.Pos)
		file := pos.Filename
		if rel, err := filepath.Rel(baseDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		out = append(out, record{
			File:     file,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: f.Analyzer.Name,
			Message:  f.Diag.Message,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.File != b.File:
			return a.File < b.File
		case a.Line != b.Line:
			return a.Line < b.Line
		case a.Col != b.Col:
			return a.Col < b.Col
		case a.Analyzer != b.Analyzer:
			return a.Analyzer < b.Analyzer
		default:
			return a.Message < b.Message
		}
	})
	dedup := out[:0]
	for i, r := range out {
		if i > 0 && r == out[i-1] {
			continue
		}
		dedup = append(dedup, r)
	}
	return dedup
}

// mustAbs resolves dir or falls back to it verbatim (relativization
// then simply keeps absolute paths).
func mustAbs(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}

// writeJSON emits the records as one JSON array. An empty run prints
// [] rather than null so consumers can always range over the result.
func writeJSON(w io.Writer, records []record) error {
	if records == nil {
		records = []record{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(records)
}

// selectAnalyzers resolves the -only flag against the suite: every
// analyzer when only is empty, else the named ones in the order given.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var suite []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", strings.TrimSpace(name))
		}
		suite = append(suite, a)
	}
	return suite, nil
}

// Lint loads the packages matching patterns under dir and applies every
// applicable analyzer through the facts-sharing suite driver.
func Lint(dir string, suite []*analysis.Analyzer, patterns ...string) ([]analysis.Finding, error) {
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.RunSuite(pkgs, suite)
}
