// Package config serializes memory-system configurations to JSON so
// experiments are reproducible from declarative files, and names the
// paper's canonical setups as presets.
//
// The JSON layer deliberately mirrors the paper's vocabulary (streams,
// depth, filter entries, czone bits) rather than core.Config's full
// structure; the handful of exotic knobs (victim caches, partitioned
// streams, L1 shape) are exposed with defaults matching the paper.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"streamsim/internal/core"
	"streamsim/internal/stream"
)

// File is the JSON schema. Zero-valued fields take the paper's
// defaults (see Defaults); explicit zeros are expressed with pointers.
type File struct {
	// Preset, when set, starts from a named configuration before the
	// other fields override it: "paper" (the full Section 7 system),
	// "section5" (plain streams), "section6" (filtered streams),
	// "bare" (no streams).
	Preset string `json:"preset,omitempty"`

	// Streams is the stream buffer count.
	Streams *int `json:"streams,omitempty"`
	// Depth is the per-stream FIFO depth.
	Depth *int `json:"depth,omitempty"`
	// Latency is the prefetch return latency in references.
	Latency *uint64 `json:"latency,omitempty"`
	// FilterEntries sizes the unit-stride filter (0 disables).
	FilterEntries *int `json:"filter_entries,omitempty"`
	// Stride selects "czone", "mindelta" or "none".
	Stride string `json:"stride,omitempty"`
	// StrideEntries sizes the non-unit-stride history.
	StrideEntries *int `json:"stride_entries,omitempty"`
	// CzoneBits sets the czone size in word bits.
	CzoneBits *uint `json:"czone_bits,omitempty"`

	// L1KB sizes each on-chip cache in KB.
	L1KB *uint `json:"l1_kb,omitempty"`
	// L1Assoc is the on-chip associativity.
	L1Assoc *uint `json:"l1_assoc,omitempty"`
	// VictimEntries adds victim caches behind the L1s.
	VictimEntries *int `json:"victim_entries,omitempty"`
	// Partitioned splits instruction and data streams.
	Partitioned *bool `json:"partitioned,omitempty"`
}

// presets maps names to base configurations.
func presets() map[string]core.Config {
	paper := core.DefaultConfig()

	s6 := paper
	s6.Stride = core.NoStrideDetection
	s6.StrideFilterEntries = 0

	s5 := s6
	s5.UnitFilterEntries = 0

	bare := s5
	bare.Streams = stream.Config{}

	return map[string]core.Config{
		"":         paper,
		"paper":    paper,
		"section5": s5,
		"section6": s6,
		"bare":     bare,
	}
}

// Build resolves the file into a core.Config.
func (f *File) Build() (core.Config, error) {
	cfg, ok := presets()[f.Preset]
	if !ok {
		return core.Config{}, fmt.Errorf("config: unknown preset %q (paper, section5, section6, bare)", f.Preset)
	}
	if f.Streams != nil {
		if *f.Streams == 0 {
			cfg.Streams = stream.Config{}
			cfg.UnitFilterEntries = 0
			cfg.Stride = core.NoStrideDetection
		} else {
			cfg.Streams.Streams = *f.Streams
			if cfg.Streams.Depth == 0 {
				cfg.Streams.Depth = 2
			}
		}
	}
	if f.Depth != nil {
		cfg.Streams.Depth = *f.Depth
	}
	if f.Latency != nil {
		cfg.Streams.Latency = *f.Latency
	}
	if f.FilterEntries != nil {
		cfg.UnitFilterEntries = *f.FilterEntries
	}
	switch f.Stride {
	case "":
	case "czone":
		cfg.Stride = core.CzoneScheme
	case "mindelta":
		cfg.Stride = core.MinDeltaScheme
	case "none":
		cfg.Stride = core.NoStrideDetection
	default:
		return core.Config{}, fmt.Errorf("config: unknown stride scheme %q", f.Stride)
	}
	if f.StrideEntries != nil {
		cfg.StrideFilterEntries = *f.StrideEntries
	}
	if f.CzoneBits != nil {
		cfg.CzoneBits = *f.CzoneBits
	}
	if f.L1KB != nil {
		cfg.L1I.SizeBytes = *f.L1KB << 10
		cfg.L1D.SizeBytes = *f.L1KB << 10
	}
	if f.L1Assoc != nil {
		cfg.L1I.Assoc = *f.L1Assoc
		cfg.L1D.Assoc = *f.L1Assoc
	}
	if f.VictimEntries != nil {
		cfg.VictimEntries = *f.VictimEntries
	}
	if f.Partitioned != nil {
		cfg.PartitionedStreams = *f.Partitioned
	}
	// Validate by constructing a system.
	if _, err := core.New(cfg); err != nil {
		return core.Config{}, fmt.Errorf("config: %w", err)
	}
	return cfg, nil
}

// Load reads and resolves a JSON configuration file. The one place
// the simulator touches the filesystem by design.
//
//simlint:configload
func Load(path string) (core.Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Config{}, err
	}
	defer f.Close()
	return Read(f)
}

// Read parses a JSON configuration from r.
func Read(r io.Reader) (core.Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var file File
	if err := dec.Decode(&file); err != nil {
		return core.Config{}, fmt.Errorf("config: %w", err)
	}
	return file.Build()
}

// Describe renders a config's memory-system summary, the form printed
// by tools' verbose modes.
func Describe(cfg core.Config) string {
	if cfg.Streams.Streams == 0 {
		return fmt.Sprintf("L1 %dKB/%d-way %s + memory (no streams)",
			cfg.L1D.SizeBytes>>10, cfg.L1D.Assoc, cfg.L1D.Replacement)
	}
	filter := "no filter"
	if cfg.UnitFilterEntries > 0 {
		filter = fmt.Sprintf("%d-entry filter", cfg.UnitFilterEntries)
	}
	stride := "no stride detection"
	switch cfg.Stride {
	case core.CzoneScheme:
		stride = fmt.Sprintf("czone %d bits x%d", cfg.CzoneBits, cfg.StrideFilterEntries)
	case core.MinDeltaScheme:
		stride = fmt.Sprintf("min-delta x%d", cfg.StrideFilterEntries)
	}
	return fmt.Sprintf("L1 %dKB/%d-way + %d streams depth %d, %s, %s",
		cfg.L1D.SizeBytes>>10, cfg.L1D.Assoc,
		cfg.Streams.Streams, cfg.Streams.Depth, filter, stride)
}
