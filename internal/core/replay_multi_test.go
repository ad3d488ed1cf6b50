package core_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// multiConfigs is the mixed configuration set the fan-out engine is
// checked against: bare L1, plain streams at two widths, the filtered
// configuration and the czone stride scheme — one of each hardware
// shape the experiments replay through.
func multiConfigs() []core.Config {
	bare := core.DefaultConfig()
	bare.Streams = stream.Config{}
	bare.UnitFilterEntries = 0
	bare.Stride = core.NoStrideDetection

	plain := func(n int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Streams = stream.Config{Streams: n, Depth: 2}
		cfg.UnitFilterEntries = 0
		cfg.Stride = core.NoStrideDetection
		return cfg
	}

	filtered := plain(10)
	filtered.UnitFilterEntries = 16

	strided := filtered
	strided.Stride = core.CzoneScheme
	strided.StrideFilterEntries = 16
	strided.CzoneBits = 16

	return []core.Config{bare, plain(2), plain(8), filtered, strided}
}

// fixtures memoizes what the equivalence tests share: several of them
// sweep all fifteen workloads against the same independent oracle, so
// each input is recorded, and each (input, config) reference replayed,
// once per package run — which keeps the package inside the test
// timeout under -race. Stores are read-only once recorded and results
// are values, so sharing them cannot couple one test to another.
var fixtures struct {
	sync.Mutex
	traces map[string]*trace.Store
	solo   map[soloKey]core.Results
}

type soloKey struct {
	st  *trace.Store
	cfg core.Config
}

// recordTrace runs a workload at a small scale straight into a
// trace.Store (the Store is a workload.Sink), once per (name, scale).
func recordTrace(t testing.TB, name string, scale float64) *trace.Store {
	t.Helper()
	key := fmt.Sprintf("%s@%g", name, scale)
	fixtures.Lock()
	defer fixtures.Unlock()
	if st, ok := fixtures.traces[key]; ok {
		return st
	}
	w, err := workload.New(name, workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStore(int(workload.EstimateRefs(name, workload.SizeSmall, scale)))
	if err := w.Run(st, scale); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if fixtures.traces == nil {
		fixtures.traces = map[string]*trace.Store{}
	}
	fixtures.traces[key] = st
	return st
}

// replayEach returns each config's results from a solo ReplayStore of
// st — the independent oracle — replaying each (store, config) pair
// once per package run.
func replayEach(t *testing.T, cfgs []core.Config, st *trace.Store) []core.Results {
	t.Helper()
	want := make([]core.Results, len(cfgs))
	for i, cfg := range cfgs {
		key := soloKey{st, cfg}
		fixtures.Lock()
		r, ok := fixtures.solo[key]
		fixtures.Unlock()
		if !ok {
			sys := newSystems(t, cfgs[i:i+1])[0]
			if err := core.ReplayStore(context.Background(), sys, st); err != nil {
				t.Fatal(err)
			}
			r = sys.Results()
			fixtures.Lock()
			if fixtures.solo == nil {
				fixtures.solo = map[soloKey]core.Results{}
			}
			fixtures.solo[key] = r
			fixtures.Unlock()
		}
		want[i] = r
	}
	return want
}

func newSystems(t testing.TB, cfgs []core.Config) []*core.System {
	t.Helper()
	systems := make([]*core.System, len(cfgs))
	for i, cfg := range cfgs {
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems[i] = sys
	}
	return systems
}

// mixedFrontConfigs is the front-class fixture: L1 associativity
// {1, 4} × victim buffer {0, 4} entries gives four front classes, and
// two stream sides per front give each class a leader with no streams
// and a follower with two plain streams. The direct-mapped fronts use
// LRU replacement, so the stamped path of AccessPacked runs beside the
// paper's deferred-hit random replacement. Class members are
// interleaved, not adjacent, so the plan must group by key rather than
// by position.
func mixedFrontConfigs() []core.Config {
	var cfgs []core.Config
	for _, streams := range []int{0, 2} {
		for _, assoc := range []uint{1, 4} {
			for _, victim := range []int{0, 4} {
				cfg := core.DefaultConfig()
				cfg.L1I.Assoc, cfg.L1D.Assoc = assoc, assoc
				if assoc == 1 {
					cfg.L1I.Replacement, cfg.L1D.Replacement = cache.LRU, cache.LRU
				}
				cfg.VictimEntries = victim
				cfg.Streams = stream.Config{Streams: streams, Depth: 2}
				cfg.UnitFilterEntries = 0
				cfg.Stride = core.NoStrideDetection
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// checkResults compares each system's results with want.
func checkResults(t *testing.T, what string, systems []*core.System, want []core.Results) {
	t.Helper()
	for i, sys := range systems {
		if got := sys.Results(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: config %d results diverge:\ngot  %+v\nwant %+v", what, i, got, want[i])
		}
	}
}

// wholeTrace replays all of st through the systems in one call.
func wholeTrace(ctx context.Context, systems []*core.System, st *trace.Store) error {
	return core.ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, 0)
}

// TestReplayStoreMultiMatchesIndependent pins the fan-out's contract
// on one shared front: for every workload, a whole-trace replay of the
// mixed stream-side config set produces per-system results identical
// to N independent ReplayStore runs, with one leader and four
// followers.
func TestReplayStoreMultiMatchesIndependent(t *testing.T) {
	const scale = 0.05
	ctx := context.Background()
	cfgs := multiConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			st := recordTrace(t, name, scale)
			want := replayEach(t, cfgs, st)
			systems := newSystems(t, cfgs)
			if err := wholeTrace(ctx, systems, st); err != nil {
				t.Fatal(err)
			}
			if got := core.LastFanOutWidth(); got != len(systems) {
				t.Errorf("LastFanOutWidth = %d, want %d", got, len(systems))
			}
			checkResults(t, "whole trace", systems, want)
		})
	}
}

// TestReplayStoreMultiMixedFront pins front classes: when the systems
// split into several fronts, each with a leader and followers, every
// replay path matches independent ReplayStore runs on every workload —
//
//   - the whole trace in one call, and window by window;
//   - a prefix to K/2, checkpointed and restored, then resumed to K
//     matches the full replay, both as the restored group and for each
//     system alone — so a follower's checkpoint carries a front of its
//     own.
func TestReplayStoreMultiMixedFront(t *testing.T) {
	const scale = 0.05
	ctx := context.Background()
	cfgs := mixedFrontConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			st := recordTrace(t, name, scale)
			want := replayEach(t, cfgs, st)
			systems := newSystems(t, cfgs)
			if err := wholeTrace(ctx, systems, st); err != nil {
				t.Fatal(err)
			}
			checkResults(t, "whole trace", systems, want)
			systems = newSystems(t, cfgs)
			if err := replayWindowByWindow(ctx, systems, st); err != nil {
				t.Fatal(err)
			}
			checkResults(t, "window by window", systems, want)

			K := st.WindowCount()
			F := max(K/2, 1)
			systems = newSystems(t, cfgs)
			if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, F); err != nil {
				t.Fatal(err)
			}
			cks := make([]*core.Checkpoint, len(systems))
			for i, sys := range systems {
				cks[i] = sys.Checkpoint()
			}
			restored := make([]*core.System, len(cks))
			for i, ck := range cks {
				restored[i] = ck.Restore()
			}
			if err := core.ReplayStoreMultiPrefixFrom(ctx, restored, st, F, K); err != nil {
				t.Fatal(err)
			}
			checkResults(t, "restored group", restored, want)
			for i, ck := range cks {
				restored[i] = ck.Restore()
				if err := core.ReplayStoreMultiPrefixFrom(ctx, restored[i:i+1], st, F, K); err != nil {
					t.Fatal(err)
				}
			}
			checkResults(t, "restored alone", restored, want)
		})
	}
}

// TestFollowerKeepsFrontState pins the exit rule on both whole-trace
// paths: a follower leaves the call with its leader's front state, not
// the pristine L1 it entered with, so a later replay through it alone
// continues exactly like a solo system that ran both traces. Every
// system also leaves counting into its own counters: its checkpoint
// restore, which counts into a fresh copy, replays the second trace to
// the same Results.
func TestFollowerKeepsFrontState(t *testing.T) {
	ctx := context.Background()
	first := recordTrace(t, "mgrid", 0.05)
	second := recordTrace(t, "cgm", 0.05)
	cfgs := []core.Config{core.DefaultConfig(), core.DefaultConfig()}
	for _, tc := range []struct {
		name   string
		replay func(context.Context, []*core.System, *trace.Store) error
	}{
		{"sequential", wholeTrace},
		{"exact", replayWindowByWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			solo := newSystems(t, cfgs[:1])
			if err := tc.replay(ctx, solo, first); err != nil {
				t.Fatal(err)
			}
			if err := core.ReplayStore(ctx, solo[0], second); err != nil {
				t.Fatal(err)
			}
			want := solo[0].Results()
			systems := newSystems(t, cfgs)
			if err := tc.replay(ctx, systems, first); err != nil {
				t.Fatal(err)
			}
			for i, sys := range systems {
				restored := sys.Checkpoint().Restore()
				for _, s := range []*core.System{sys, restored} {
					if err := core.ReplayStore(ctx, s, second); err != nil {
						t.Fatal(err)
					}
				}
				got := sys.Results()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("system %d diverges from a solo system after the second trace:\ngot  %+v\nwant %+v",
						i, got, want)
				}
				// The solo oracle takes the same engine exits, so only
				// the restore exposes a system whose components still
				// count into a value an exit left behind.
				if r := restored.Results(); !reflect.DeepEqual(r, got) {
					t.Errorf("system %d and its restored checkpoint diverge after the second trace:\ngot  %+v\nwant %+v",
						i, r, got)
				}
			}
		})
	}
}

// syntheticStore builds a long strided trace without running a
// workload, for cancellation tests that need many batches.
func syntheticStore(nRefs int) *trace.Store {
	st := trace.NewStore(nRefs)
	a := mem.Access{Addr: 1 << 24, Kind: mem.Read}
	for i := 0; i < nRefs; i++ {
		st.Append(a)
		a.Addr += 64
	}
	return st
}

// TestReplayStoreMultiCancel checks that a cancelled context aborts
// the fan-out promptly on every path, the logged one included: the
// call returns ctx.Err(), every system has consumed the same prefix,
// and none consumes more than one extra batch after the cancel. The
// logged path's batch callback must have seen exactly that prefix.
// The pre-cancelled variant bounds the damage exactly; the mid-flight
// variant (cancel from another goroutine) is the shape the simd
// service exercises and runs race-clean under -race. The systems span
// several front classes, so leaders and followers both stop.
func TestReplayStoreMultiCancel(t *testing.T) {
	st := syntheticStore(64 * trace.ReplayBatchLen)
	cfgs := append(multiConfigs(), mixedFrontConfigs()...)
	batched := -1 // references the logged path's callback saw; -1 on the other paths
	logged := func(ctx context.Context, systems []*core.System, st *trace.Store) error {
		batched = 0
		return core.ReplayStoreFronts(ctx, systems, st, nil, func(n int) { batched += n })
	}
	consumed := func(t *testing.T, systems []*core.System) uint64 {
		t.Helper()
		var first uint64
		for i, sys := range systems {
			r := sys.Results()
			n := r.L1I.Accesses + r.L1D.Accesses
			if i == 0 {
				first = n
			} else if n != first {
				t.Errorf("system %d consumed %d refs, system 0 %d: a cancelled fan-out must stop every system at one prefix", i, n, first)
			}
		}
		if batched >= 0 && uint64(batched) != first {
			t.Errorf("the batch callback saw %d refs, the systems consumed %d", batched, first)
		}
		return first
	}

	for _, mode := range []struct {
		name   string
		replay func(context.Context, []*core.System, *trace.Store) error
	}{
		{"sequential", wholeTrace},
		{"exact", replayWindowByWindow},
		{"logged", logged},
	} {
		t.Run(mode.name+"/pre-cancelled", func(t *testing.T) {
			batched = -1
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			systems := newSystems(t, cfgs)
			if err := mode.replay(ctx, systems, st); err != context.Canceled {
				t.Fatalf("replay = %v, want context.Canceled", err)
			}
			if n := consumed(t, systems); n > trace.ReplayBatchLen {
				t.Errorf("systems consumed %d refs after pre-cancel, want <= one batch (%d)",
					n, trace.ReplayBatchLen)
			}
		})
		t.Run(mode.name+"/mid-flight", func(t *testing.T) {
			batched = -1
			ctx, cancel := context.WithCancel(context.Background())
			systems := newSystems(t, cfgs)
			var wg sync.WaitGroup
			wg.Add(1)
			errc := make(chan error, 1)
			go func() {
				defer wg.Done()
				errc <- mode.replay(ctx, systems, st)
			}()
			cancel()
			wg.Wait()
			// The replay may have finished before the cancel landed;
			// either outcome is legal, but a cancelled run must report
			// context.Canceled, never a partial-success nil.
			if err := <-errc; err != nil && err != context.Canceled {
				t.Fatalf("replay = %v, want nil or context.Canceled", err)
			}
			consumed(t, systems)
		})
	}
}

// TestReplayStoreMultiDegenerate covers the zero- and one-system
// shapes.
func TestReplayStoreMultiDegenerate(t *testing.T) {
	ctx := context.Background()
	st := syntheticStore(3 * trace.ReplayBatchLen)
	if err := wholeTrace(ctx, nil, st); err != nil {
		t.Fatalf("empty system set: %v", err)
	}
	one := newSystems(t, multiConfigs()[:1])
	if err := wholeTrace(ctx, one, st); err != nil {
		t.Fatal(err)
	}
	if got := core.LastFanOutWidth(); got != 1 {
		t.Errorf("LastFanOutWidth after single-system replay = %d, want 1", got)
	}
	if consumed := one[0].Results().L1D.Accesses; consumed != uint64(st.Len()) {
		t.Errorf("single-system replay consumed %d refs, want %d", consumed, st.Len())
	}
}

// TestLastFanOutWidthEveryPath pins the replay_fanout_width gauge on
// a whole-trace replay, on a resumed one and on a logged one: a
// three-system replay that follows a one-system one must read three
// each way.
func TestLastFanOutWidthEveryPath(t *testing.T) {
	ctx := context.Background()
	st := syntheticStore(4 * trace.WindowRefs)
	for _, path := range []struct {
		name   string
		replay func([]*core.System) error
	}{
		{"whole trace", func(s []*core.System) error { return core.ReplayStoreMultiPrefixFrom(ctx, s, st, 0, 0) }},
		{"from window 2", func(s []*core.System) error { return core.ReplayStoreMultiPrefixFrom(ctx, s, st, 2, 0) }},
		{"logged", func(s []*core.System) error { return core.ReplayStoreFronts(ctx, s, st, nil, func(int) {}) }},
	} {
		for _, n := range []int{1, 3} {
			if err := path.replay(newSystems(t, multiConfigs()[:n])); err != nil {
				t.Fatal(err)
			}
			if got := core.LastFanOutWidth(); got != n {
				t.Errorf("%s: LastFanOutWidth after a %d-system replay = %d", path.name, n, got)
			}
		}
	}
}
