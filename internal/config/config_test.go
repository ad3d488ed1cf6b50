package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamsim/internal/core"
)

func intp(v int) *int       { return &v }
func uintp(v uint) *uint    { return &v }
func u64p(v uint64) *uint64 { return &v }
func boolp(v bool) *bool    { return &v }

func TestEmptyFileIsPaperDefault(t *testing.T) {
	cfg, err := (&File{}).Build()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig()
	if cfg.Streams.Streams != want.Streams.Streams || cfg.Streams.Depth != want.Streams.Depth ||
		cfg.UnitFilterEntries != want.UnitFilterEntries ||
		cfg.Stride != want.Stride || cfg.CzoneBits != want.CzoneBits {
		t.Errorf("empty file = %+v, want the paper default", cfg)
	}
}

func TestPresets(t *testing.T) {
	cases := map[string]func(core.Config) bool{
		"paper":    func(c core.Config) bool { return c.Stride == core.CzoneScheme && c.UnitFilterEntries == 16 },
		"section6": func(c core.Config) bool { return c.Stride == core.NoStrideDetection && c.UnitFilterEntries == 16 },
		"section5": func(c core.Config) bool { return c.UnitFilterEntries == 0 && c.Streams.Streams == 10 },
		"bare":     func(c core.Config) bool { return c.Streams.Streams == 0 },
	}
	for name, check := range cases {
		cfg, err := (&File{Preset: name}).Build()
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if !check(cfg) {
			t.Errorf("preset %s produced %+v", name, cfg)
		}
	}
	_, err := (&File{Preset: "section99"}).Build()
	if err == nil {
		t.Fatal("unknown preset should fail")
	}
	for name := range presets() {
		if _, ok := cases[name]; !ok && name != "" {
			t.Errorf("preset %q is not checked", name)
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("the unknown-preset error %q does not list %q", err, name)
		}
	}
}

func TestOverrides(t *testing.T) {
	f := &File{
		Preset:        "paper",
		Streams:       intp(4),
		Depth:         intp(8),
		Latency:       u64p(30),
		FilterEntries: intp(8),
		Stride:        "mindelta",
		StrideEntries: intp(4),
		L1KB:          uintp(32),
		L1Assoc:       uintp(2),
		VictimEntries: intp(4),
		Partitioned:   boolp(true),
	}
	cfg, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Streams.Streams != 4 || cfg.Streams.Depth != 8 || cfg.Streams.Latency != 30 {
		t.Errorf("stream overrides lost: %+v", cfg.Streams)
	}
	if cfg.Stride != core.MinDeltaScheme || cfg.StrideFilterEntries != 4 {
		t.Errorf("stride overrides lost")
	}
	if cfg.L1D.SizeBytes != 32<<10 || cfg.L1D.Assoc != 2 {
		t.Errorf("L1 overrides lost: %+v", cfg.L1D)
	}
	if cfg.VictimEntries != 4 || !cfg.PartitionedStreams {
		t.Error("victim/partition overrides lost")
	}
}

func TestZeroStreamsDisablesEverything(t *testing.T) {
	cfg, err := (&File{Streams: intp(0)}).Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Streams.Streams != 0 || cfg.UnitFilterEntries != 0 || cfg.Stride != core.NoStrideDetection {
		t.Errorf("streams=0 should strip prefetch hardware: %+v", cfg)
	}
}

func TestBadStrideScheme(t *testing.T) {
	if _, err := (&File{Stride: "psychic"}).Build(); err == nil {
		t.Error("unknown stride scheme should fail")
	}
}

func TestInvalidCombinationRejected(t *testing.T) {
	// A filter without streams is invalid in core; Build must surface it.
	f := &File{Preset: "bare", FilterEntries: intp(16)}
	if _, err := f.Build(); err == nil {
		t.Error("filter-without-streams should fail validation")
	}
}

func TestReadJSON(t *testing.T) {
	cfg, err := Read(strings.NewReader(`{"preset": "section6", "streams": 4, "czone_bits": 20}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Streams.Streams != 4 || cfg.UnitFilterEntries != 16 {
		t.Errorf("JSON config wrong: %+v", cfg)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"streems": 4}`)); err == nil {
		t.Error("typo'd field should be rejected")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Error("non-JSON should fail")
	}
}

func TestLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"preset": "section5"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.UnitFilterEntries != 0 || cfg.Streams.Streams != 10 {
		t.Errorf("loaded config wrong: %+v", cfg)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

// TestCommittedConfigsLoad loads every preset file under configs/:
// Load builds a system from each, so a file whose geometry core.New
// refuses (a size or associativity that is not a power of two, say)
// fails here rather than at a user's -config.
func TestCommittedConfigsLoad(t *testing.T) {
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("found %d config files under configs/, want at least 4: %v", len(paths), paths)
	}
	for _, path := range paths {
		if _, err := Load(path); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
	}
}

func TestDescribe(t *testing.T) {
	paper, _ := (&File{}).Build()
	s := Describe(paper)
	for _, want := range []string{"10 streams", "16-entry filter", "czone 16 bits"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe(paper) = %q, missing %q", s, want)
		}
	}
	bare, _ := (&File{Preset: "bare"}).Build()
	if !strings.Contains(Describe(bare), "no streams") {
		t.Errorf("Describe(bare) = %q", Describe(bare))
	}
}
