package analysis

import (
	"go/ast"
	"testing"
)

// TestLoadTypeChecks loads a real package of this module through the
// export-data pipeline and sanity-checks the result.
func TestLoadTypeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the toolchain via go list")
	}
	pkgs, err := Load("../..", "./internal/mem")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "streamsim/internal/mem" {
		t.Errorf("package path = %q", pkg.Path)
	}
	if len(pkg.Files) == 0 || pkg.Types == nil {
		t.Fatal("package loaded without files or types")
	}
	// The loader must resolve identifiers: find one Use with a type.
	resolved := 0
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pkg.TypesInfo.Uses[id] != nil {
				resolved++
			}
			return true
		})
	}
	if resolved == 0 {
		t.Error("no identifiers resolved; type info is empty")
	}
}

// TestAppliesTo covers the driver-side package filter.
func TestAppliesTo(t *testing.T) {
	a := &Analyzer{Name: "x", PackagePrefixes: []string{"streamsim/internal/core"}}
	if !a.AppliesTo("streamsim/internal/core") {
		t.Error("prefix match rejected")
	}
	if a.AppliesTo("streamsim/cmd/streamsim") {
		t.Error("non-matching package accepted")
	}
	open := &Analyzer{Name: "y"}
	if !open.AppliesTo("anything") {
		t.Error("empty prefix list must match everything")
	}
}
