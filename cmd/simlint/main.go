// Command simlint is the simulator's invariant checker: a multichecker
// driver for the custom static-analysis passes in internal/analysis.
//
// Each pass encodes an invariant of the paper's methodology that the
// type system cannot express:
//
//	seededrand  deterministic, config-seeded randomness
//	pow2size    power-of-two block/cache/czone geometry
//	errdiscard  no dropped trace/config errors
//	hotpath     //simlint:hotpath functions transitively allocation-free
//	ctxflow     received contexts flow onward; no stray Background/TODO
//	lockdisc    mutex discipline in the service and sweep layers
//	borrowck    //simlint:borrowed parameters not retained past the call
//	detflow     //simlint:deterministic roots transitively deterministic
//	statecov    //simlint:statefull handlers cover every //simlint:state field
//	directives  every //simlint:* comment parses, resolves and attaches
//
// The call-graph-aware passes (hotpath, ctxflow, lockdisc, borrowck,
// detflow, statecov) share one set of module facts
// (internal/analysis/callgraph) built per run over every loaded
// package.
//
// Some invariants need no pass because they hold by construction: the
// bandwidth ledger and the memory-traffic hook move in lockstep
// because core counts each off-chip block in the one function that
// posts it (System.writeBack, System.fetch), on every replay path.
//
// Usage:
//
//	simlint [-list] [-json] [-only name,name] [-skip name,name]
//	        [-baseline file] [-write-baseline file] [packages]
//
// Packages default to ./...; findings are sorted by file/line/column/
// analyzer and exactly-duplicate findings are dropped, so -json output
// is diff-stable. A baseline file (see -write-baseline and `make
// lint-baseline`) waives its recorded findings by (file, analyzer,
// message), letting a new analyzer land strict without blocking on
// pre-existing findings; entries carry no line numbers, so unrelated
// edits do not invalidate them. The exit status is 0 when clean, 1
// when findings were reported, 2 on usage or load errors. `make lint` and
// CI run it over the whole repository with the committed baseline.
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
	"streamsim/internal/analysis/pow2size"
	"streamsim/internal/analysis/seededrand"
	"streamsim/internal/analysis/statecov"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	seededrand.Analyzer,
	pow2size.Analyzer,
	errdiscard.Analyzer,
	hotpath.Analyzer,
	ctxflow.Analyzer,
	lockdisc.Analyzer,
	borrowck.Analyzer,
	detflow.Analyzer,
	statecov.Analyzer,
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
	runAlias := fs.String("run", "", "alias for -only (kept for compatibility)")
	skip := fs.String("skip", "", "comma-separated analyzer names to skip")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message)")
	baseline := fs.String("baseline", "", "waive findings recorded in this baseline file")
	writeBaseline := fs.String("write-baseline", "", "write current findings to this baseline file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only == "" {
		*only = *runAlias
	} else if *runAlias != "" {
		fmt.Fprintln(stderr, "simlint: -run and -only are aliases; pass one")
		return 2
	}
	suite, err := selectAnalyzers(*only, *skip)
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
	if *writeBaseline != "" {
		if err := saveBaseline(*writeBaseline, records); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "simlint: baseline %s: %d entries\n", *writeBaseline, len(records))
		return 0
	}
	if *baseline != "" {
		waived, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
		records = filterBaseline(records, waived)
	}
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
// fields every output mode (text, JSON, baseline) agrees on.
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
// output, so -json and the baseline are diff-stable run to run.
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

// baselineEntry is one waived finding. No line or column: a baseline
// survives unrelated edits to the file, and a waived finding that
// moves is still the same finding.
type baselineEntry struct {
	File     string `json:"file"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// loadBaseline reads a baseline file written by -write-baseline.
func loadBaseline(path string) (map[baselineEntry]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var entries []baselineEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	waived := make(map[baselineEntry]bool, len(entries))
	for _, e := range entries {
		waived[e] = true
	}
	return waived, nil
}

// filterBaseline drops records the baseline waives.
func filterBaseline(records []record, waived map[baselineEntry]bool) []record {
	out := records[:0]
	for _, r := range records {
		if waived[baselineEntry{r.File, r.Analyzer, r.Message}] {
			continue
		}
		out = append(out, r)
	}
	return out
}

// saveBaseline writes the current findings as a baseline. Entries are
// unique and inherit toRecords's ordering, so regeneration is
// diff-stable.
func saveBaseline(path string, records []record) error {
	entries := make([]baselineEntry, 0, len(records))
	seen := map[baselineEntry]bool{}
	for _, r := range records {
		e := baselineEntry{r.File, r.Analyzer, r.Message}
		if seen[e] {
			continue
		}
		seen[e] = true
		entries = append(entries, e)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
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

// selectAnalyzers resolves the -only/-skip flags against the suite.
func selectAnalyzers(only, skip string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	names := func(csv string) ([]string, error) {
		if csv == "" {
			return nil, nil
		}
		var out []string
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if _, ok := byName[name]; !ok {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			out = append(out, name)
		}
		return out, nil
	}
	onlyNames, err := names(only)
	if err != nil {
		return nil, err
	}
	skipNames, err := names(skip)
	if err != nil {
		return nil, err
	}
	skipped := map[string]bool{}
	for _, n := range skipNames {
		skipped[n] = true
	}
	var suite []*analysis.Analyzer
	if onlyNames == nil {
		for _, a := range analyzers {
			if !skipped[a.Name] {
				suite = append(suite, a)
			}
		}
		return suite, nil
	}
	for _, n := range onlyNames {
		if !skipped[n] {
			suite = append(suite, byName[n])
		}
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
