package sweeprun

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/tab"
	"streamsim/internal/timing"
)

// baseSpec is a small sweep that touches the replay path for a real
// benchmark at a fast scale.
func baseSpec(metric string) Spec {
	return Spec{
		Workload: "mgrid",
		Param:    "streams",
		Values:   []int{1, 2, 4, 8},
		Metric:   metric,
		Scale:    0.05,
	}
}

// runConcurrently runs spec from callers goroutines at once on a cold
// recording cache and fails the test unless every call returns
// wantTab and want.
func runConcurrently(t *testing.T, spec Spec, callers int, wantTab *tab.Table, want []float64) {
	t.Helper()
	ResetTraceCache()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gotTab, got, err := Run(context.Background(), spec)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("caller %d: series diverged: alone %v, concurrent %v", g, want, got)
			}
			if !reflect.DeepEqual(gotTab, wantTab) {
				t.Errorf("caller %d: tables diverged:\nalone %+v\nconcurrent %+v", g, wantTab, gotTab)
			}
		}()
	}
	wg.Wait()
}

// TestRunParallelMatchesSequential pins sweeps run side by side, as the
// service's pool runs them: for every metric, sweeps that record,
// replay, memoize and store the paper's front over one recording at
// once each return the table and series of one sweep run alone. Run
// it under -race.
//
//simlint:deterministic streamsim/internal/sweeprun.Run
func TestRunParallelMatchesSequential(t *testing.T) {
	for _, metric := range []string{"hit", "eb", "missrate", "cpi"} {
		t.Run(metric, func(t *testing.T) {
			ResetTraceCache()
			seqTab, seqVals, err := Run(context.Background(), baseSpec(metric))
			if err != nil {
				t.Fatal(err)
			}
			runConcurrently(t, baseSpec(metric), 4, seqTab, seqVals)
		})
	}
}

// TestRunCustomWorkloadParallel covers the custom:<mix> path, whose
// trace comes from a seeded random generator: callers that each record
// it at once must record the same trace, so their sweeps agree with
// one run alone.
func TestRunCustomWorkloadParallel(t *testing.T) {
	spec := Spec{
		Workload: "custom:0.5,0.3,0.2",
		Param:    "depth",
		Values:   []int{1, 2, 4},
		Scale:    0.2,
	}
	ResetTraceCache()
	seqTab, seq, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	runConcurrently(t, spec, 3, seqTab, seq)
}

// soloValues returns spec's metric for each of its values from solo
// replays of the recording: a fresh system over core.ReplayStore with
// the trace's instructions added for the hit-rate family, and a fresh
// timing model replayed alone through timing.Replay with no front memo
// for cpi.
func soloValues(t *testing.T, spec Spec) []float64 {
	t.Helper()
	ctx := context.Background()
	_, tr, err := Record(ctx, spec.Workload, "small", spec.Scale)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, len(spec.Values))
	for i, v := range spec.Values {
		cfg, err := ParamSet[spec.Param].Point(v)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Metric == "cpi" {
			m, err := timing.New(cfg, timing.DefaultLatencies())
			if err != nil {
				t.Fatal(err)
			}
			if err := timing.Replay(ctx, []*timing.Model{m}, tr, nil); err != nil {
				t.Fatal(err)
			}
			values[i] = m.Stats().CPI()
			continue
		}
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.ReplayStore(ctx, sys, tr); err != nil {
			t.Fatal(err)
		}
		sys.AddInstructions(tr.Instructions())
		r := sys.Results()
		switch spec.Metric {
		case "hit":
			values[i] = r.StreamHitRate()
		case "eb":
			values[i] = r.ExtraBandwidth()
		default:
			values[i] = r.DataMissRate()
		}
	}
	return values
}

// TestRunMatchesSoloReplays is the sweep oracle. For every metric, each
// point of a streams sweep, an assoc sweep and a custom mix's depth
// sweep equals (==) a solo replay of its configuration (soloValues): on
// a cold cache, again when warm, where the hit-rate family reads every
// point from the results memo and cpi replays again, and after
// ResetTraceCache. The streams sweep runs first over the same
// recording, so the assoc sweep meets the paper's stored front, which
// may serve only its paper point, in every metric: a cpi sweep charges
// its models through timing.Replay with the recording's front memo.
//
//simlint:deterministic streamsim/internal/sweeprun.Run
func TestRunMatchesSoloReplays(t *testing.T) {
	shapes := []Spec{
		{Workload: "mgrid", Param: "streams", Values: []int{1, 2, 4, 8}, Scale: 0.05},
		{Workload: "mgrid", Param: "assoc", Values: []int{1, 2, 4, 8}, Scale: 0.05},
		{Workload: "custom:0.5,0.3,0.2", Param: "depth", Values: []int{1, 2, 4}, Scale: 0.2},
	}
	for _, metric := range []string{"hit", "eb", "missrate", "cpi"} {
		t.Run(metric, func(t *testing.T) {
			want := make([][]float64, len(shapes))
			for k := range shapes {
				shapes[k].Metric = metric
				want[k] = soloValues(t, shapes[k])
			}
			ResetTraceCache()
			for _, phase := range []string{"cold", "warm", "after ResetTraceCache"} {
				if phase == "after ResetTraceCache" {
					ResetTraceCache()
				}
				for k, spec := range shapes {
					hits0 := TraceCacheStats().MemoHits
					_, got, err := Run(context.Background(), spec)
					if err != nil {
						t.Fatal(err)
					}
					wantHits := uint64(0)
					if phase == "warm" && metric != "cpi" {
						wantHits = uint64(len(spec.Values))
					}
					if hits := TraceCacheStats().MemoHits - hits0; hits != wantHits {
						t.Errorf("%s, %s sweep: %d memo hits, want %d", phase, spec.Param, hits, wantHits)
					}
					for i := range got {
						if got[i] != want[k][i] {
							t.Errorf("%s, %s sweep of %s: %s=%d gives %v, a solo replay %v",
								phase, spec.Param, spec.Workload, spec.Param, spec.Values[i], got[i], want[k][i])
						}
					}
				}
			}
		})
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, metric := range []string{"hit", "cpi"} {
		if _, _, err := Run(ctx, baseSpec(metric)); err != context.Canceled {
			t.Errorf("%s: Run on a cancelled ctx = %v, want context.Canceled", metric, err)
		}
	}
}

func TestValidateRejectsDuplicateValues(t *testing.T) {
	s := baseSpec("hit")
	s.Values = []int{1, 2, 4, 2}
	err := s.Validate()
	if err == nil {
		t.Fatal("duplicate values passed Validate")
	}
	if got := err.Error(); !strings.Contains(got, "duplicate value 2") {
		t.Errorf("duplicate error should name the value, got %q", got)
	}
}

func TestParamSetCoversParamNames(t *testing.T) {
	for _, name := range strings.Split(ParamNames(), ", ") {
		p, ok := ParamSet[name]
		if !ok || p.Apply == nil || p.Doc == "" {
			t.Errorf("ParamSet[%q] missing or undocumented", name)
		}
	}
}
