// Package sweeprun is the parameter-sweep engine shared by the sweep
// CLI and the simd job service: vary one memory-system parameter over
// a benchmark and tabulate a chosen metric. The CLI owns flag parsing
// and plotting; the service owns queueing and memoization; both hand
// a Spec to Run.
//
// It also owns the process's recording cache and its one whole-trace
// replay of fresh systems. Record records each (workload, size, scale)
// once for every caller: sweeps, the optimizer and the paper
// experiments. Results replays configurations over a recording, and
// each cached recording carries a results memo, the Results of every
// configuration replayed over it to completion, and the paper's L1
// front once a replay has simulated it (Fronts). A sweep point and an
// experiment row are the same job, so both go through Results: a paper
// pass replays each (input, configuration) once, and a sweep of a
// configuration an experiment or an earlier sweep replayed reads it
// from the memo. The memo is charged to the cache's budget.
package sweeprun

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/tab"
	"streamsim/internal/timing"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// Spec describes one sweep. The zero values of Size, Metric and Scale
// mean "small", "hit" and 0.5 (the CLI's historical defaults).
type Spec struct {
	// Workload is a benchmark name from the paper's Table 1, or a
	// "custom:<seq>,<stride>,<random>" mix.
	Workload string `json:"workload"`
	// Size is the input size: "small" (default) or "large".
	Size string `json:"size,omitempty"`
	// Param is the parameter to vary (see ParamNames).
	Param string `json:"param"`
	// Values are the parameter values, in presentation order.
	Values []int `json:"values"`
	// Metric is what to tabulate: hit, eb, missrate or cpi
	// (default hit).
	Metric string `json:"metric,omitempty"`
	// Scale is the workload iteration scale in (0, 1] (default 0.5).
	Scale float64 `json:"scale,omitempty"`
}

// WithDefaults fills unset optional fields. The service hashes the
// defaulted form so that an explicit default and an omitted field
// memoize to the same job.
func (s Spec) WithDefaults() Spec {
	if s.Size == "" {
		s.Size = "small"
	}
	if s.Metric == "" {
		s.Metric = "hit"
	}
	if s.Scale == 0 {
		s.Scale = 0.5
	}
	return s
}

// Validate rejects malformed specs without running anything.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.Workload == "" {
		return fmt.Errorf("sweeprun: workload is required")
	}
	if _, ok := ParamSet[s.Param]; !ok {
		return fmt.Errorf("sweeprun: unknown parameter %q (available: %s)", s.Param, ParamNames())
	}
	if len(s.Values) == 0 {
		return fmt.Errorf("sweeprun: at least one value is required")
	}
	// Every point's system is built before the replay starts, so the
	// value count bounds the sweep's memory like any other count.
	if len(s.Values) > core.MaxCount {
		return fmt.Errorf("sweeprun: %d values, at most %d", len(s.Values), core.MaxCount)
	}
	seen := make(map[int]bool, len(s.Values))
	for _, v := range s.Values {
		if seen[v] {
			return fmt.Errorf("sweeprun: duplicate value %d in values; each point would measure the same configuration twice", v)
		}
		seen[v] = true
		if _, err := ParamSet[s.Param].Point(v); err != nil {
			return fmt.Errorf("sweeprun: %s=%d: %w", s.Param, v, err)
		}
	}
	switch s.Metric {
	case "hit", "eb", "missrate", "cpi":
	default:
		return fmt.Errorf("sweeprun: unknown metric %q (hit, eb, missrate or cpi)", s.Metric)
	}
	if !(s.Scale > 0 && s.Scale <= 1) {
		return fmt.Errorf("sweeprun: scale %v outside (0, 1]", s.Scale)
	}
	if _, err := BuildWorkload(s.Workload, s.Size); err != nil {
		return err
	}
	return nil
}

// Param is one sweepable memory-system parameter: a documented mutator
// over core.Config. The sweep engine varies one Param at a time; the
// internal/search optimizer composes several into a multi-dimensional
// candidate space. Both mutate configurations through this one table,
// so a parameter added here is immediately sweepable and searchable.
type Param struct {
	// Doc is a one-line description for CLI listings.
	Doc string
	// Apply sets the parameter to v on cfg, rejecting invalid values.
	Apply func(cfg *core.Config, v int) error
}

// Point returns the paper's baseline configuration with the parameter
// set to v, checked by core.Config.Validate: a value the mutator
// accepts can still size hardware past core's ceilings, and this is
// where the sweep and search validators turn it away, before anything
// is recorded or queued.
func (p Param) Point(v int) (core.Config, error) {
	cfg := core.DefaultConfig()
	if err := p.Apply(&cfg, v); err != nil {
		return core.Config{}, err
	}
	return cfg, cfg.Validate()
}

// ParamSet maps every sweepable parameter name to its mutator.
var ParamSet = map[string]Param{
	"streams": {
		Doc: "number of stream buffers (>= 1)",
		Apply: func(cfg *core.Config, v int) error {
			if v == 0 {
				return fmt.Errorf("streams must be >= 1 in a sweep")
			}
			cfg.Streams.Streams = v
			return nil
		},
	},
	"depth": {
		Doc: "entries per stream buffer",
		Apply: func(cfg *core.Config, v int) error {
			cfg.Streams.Depth = v
			return nil
		},
	},
	"filter": {
		Doc: "unit-stride filter entries (0 disables)",
		Apply: func(cfg *core.Config, v int) error {
			cfg.UnitFilterEntries = v
			return nil
		},
	},
	"czone": {
		Doc: "czone size in word-address bits",
		Apply: func(cfg *core.Config, v int) error {
			if v < 1 {
				return fmt.Errorf("czone bits must be positive")
			}
			cfg.CzoneBits = uint(v)
			return nil
		},
	},
	"assoc": {
		Doc: "L1 associativity (both caches)",
		Apply: func(cfg *core.Config, v int) error {
			if v < 1 {
				return fmt.Errorf("associativity must be positive")
			}
			cfg.L1I.Assoc = uint(v)
			cfg.L1D.Assoc = uint(v)
			return nil
		},
	},
	"victim": {
		Doc: "victim-cache entries behind each L1 (0 disables)",
		Apply: func(cfg *core.Config, v int) error {
			cfg.VictimEntries = v
			return nil
		},
	},
	"latency": {
		Doc: "stream fill latency in cycles",
		Apply: func(cfg *core.Config, v int) error {
			if v < 0 {
				return fmt.Errorf("latency must be non-negative")
			}
			cfg.Streams.Latency = uint64(v)
			return nil
		},
	},
}

// ParamNames lists the sweepable parameters for error messages.
func ParamNames() string {
	names := make([]string, 0, len(ParamSet))
	for n := range ParamSet {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Run executes the sweep and returns the result table plus the raw
// metric values (one per spec value, for plotting). The workload's
// recording comes from Record, so it is generated at most once per
// process. The hit-rate family reads each point's Results through the
// recording's results memo, as an experiment row does (see Results).
// A cpi sweep charges a timing model per point in one replay of the
// full event order (Store.ReplayContext), so each point charges every
// instruction count where the trace recorded it, as a direct workload
// run would. Cancelling ctx aborts recording and the replay within one
// batch boundary.
//
//simlint:deterministic
func Run(ctx context.Context, s Spec) (*tab.Table, []float64, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	cfgs := make([]core.Config, len(s.Values))
	for i, v := range s.Values {
		cfg, err := ParamSet[s.Param].Point(v)
		if err != nil {
			return nil, nil, err
		}
		cfgs[i] = cfg
	}
	w, tr, err := Record(ctx, s.Workload, s.Size, s.Scale)
	if err != nil {
		return nil, nil, err
	}
	values := make([]float64, len(cfgs))
	if s.Metric == "cpi" {
		err = replayCPI(ctx, tr, cfgs, values)
	} else {
		var res []core.Results
		res, err = recordings.results(ctx, keyOf(s.Workload, s.Size, s.Scale), tr, cfgs, replayFresh)
		for i, r := range res {
			switch s.Metric {
			case "hit":
				values[i] = r.StreamHitRate()
			case "eb":
				values[i] = r.ExtraBandwidth()
			default:
				values[i] = r.DataMissRate()
			}
		}
	}
	if err != nil {
		return nil, nil, err
	}
	t := &tab.Table{
		Title:   fmt.Sprintf("%s: %s vs %s", w.Name, s.Metric, s.Param),
		Columns: []string{s.Param, s.Metric},
	}
	for i, v := range s.Values {
		t.AddRow(strconv.Itoa(v), tab.F(values[i]))
	}
	return t, values, nil
}

// replayCPI charges a fresh timing model of each configuration, at the
// default latencies, from one replay of tr's full event order, and
// stores each model's CPI into values.
func replayCPI(ctx context.Context, tr *trace.Store, cfgs []core.Config, values []float64) error {
	models := make(timedPoints, len(cfgs))
	for i, cfg := range cfgs {
		m, err := timing.New(cfg, timing.DefaultLatencies())
		if err != nil {
			return err
		}
		models[i] = m
	}
	if err := tr.ReplayContext(ctx, models); err != nil {
		return err
	}
	replayedRefs.Add(uint64(tr.Len()) * uint64(len(models)))
	for i, m := range models {
		values[i] = m.Stats().CPI()
	}
	return nil
}

// timedPoints is a trace sink that hands every event to each of its
// models in turn, so each model sees the event sequence a replay into
// it alone delivers.
type timedPoints []*timing.Model

func (ms timedPoints) Access(a mem.Access) {
	for _, m := range ms {
		m.Access(a)
	}
}

func (ms timedPoints) AccessBatch(accs []mem.Access) {
	for _, m := range ms {
		m.AccessBatch(accs)
	}
}

func (ms timedPoints) AddInstructions(n uint64) {
	for _, m := range ms {
		m.AddInstructions(n)
	}
}

// BuildWorkload resolves a benchmark name or a custom:<mix> spec.
func BuildWorkload(name, sizeS string) (*workload.Workload, error) {
	if mix, ok := strings.CutPrefix(name, "custom:"); ok {
		parts := strings.Split(mix, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("custom mix wants 3 comma-separated shares (seq,stride,random), got %q", mix)
		}
		var shares [3]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("bad share %q: %w", p, err)
			}
			shares[i] = v
		}
		return workload.Custom(workload.CustomParams{
			SequentialShare: shares[0],
			StrideShare:     shares[1],
			RandomShare:     shares[2],
		})
	}
	size := workload.SizeSmall
	switch sizeS {
	case "small":
	case "large":
		size = workload.SizeLarge
	default:
		return nil, fmt.Errorf("unknown size %q (small or large)", sizeS)
	}
	return workload.New(name, size)
}
