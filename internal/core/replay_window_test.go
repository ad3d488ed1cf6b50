package core_test

// The exact replay's byte-identical equivalence gates: the
// window-by-window oracle below proves every index checkpoint against
// plain sequential replays, and the fork-merge test proves that
// counters split at a fork sum back to a straight pass. These are the
// dynamic halves of the static determinism annotations:
//
//simlint:deterministic streamsim/internal/core.ReplayStoreMultiPrefixFrom
//simlint:deterministic (*streamsim/internal/core.System).Merge

import (
	"context"
	"reflect"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// replayWindowByWindow is the window-by-window oracle: it replays
// every window of st serially, each from a fresh index seek, and stops
// at the first error. Results byte-identical to a straight sequential
// replay prove the index checkpoints, the O(1) seeks and the
// window-bounded decode all agree with a straight pass.
func replayWindowByWindow(ctx context.Context, systems []*core.System, st *trace.Store) error {
	for w := 0; w < st.WindowCount(); w++ {
		if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, st, w, w+1); err != nil {
			return err
		}
	}
	return nil
}

// TestReplayWindowedExactMatchesSequential pins the window-by-window
// oracle: for every workload and the mixed config set, replaying
// window by window from fresh index seeks is byte-identical to N
// independent sequential replays. A passing run proves every window
// checkpoint in every recorded trace — the seek state, the window
// lengths and the bounded decode all agree with a straight pass.
func TestReplayWindowedExactMatchesSequential(t *testing.T) {
	const scale = 0.05
	ctx := context.Background()
	cfgs := multiConfigs()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			st := recordTrace(t, name, scale)
			want := replayEach(t, cfgs, st)

			systems := newSystems(t, cfgs)
			if err := replayWindowByWindow(ctx, systems, st); err != nil {
				t.Fatal(err)
			}
			checkResults(t, "window by window", systems, want)

			// A system alone takes the same oracle path.
			one := newSystems(t, cfgs[:1])
			if err := replayWindowByWindow(ctx, one, st); err != nil {
				t.Fatal(err)
			}
			checkResults(t, "single system, window by window", one, want)
		})
	}
}

// TestReplayWindowedFallbacksAreExact pins the names kept for the
// benchmark module (replay_window.go): whatever ShardOptions they get —
// the zero value, a single shard, or four shards over systems carrying
// traffic hooks — ReplayStoreMultiWindowed replays exactly, with
// results byte-identical to a sequential replay, and LastWindowShards
// reads 1.
func TestReplayWindowedFallbacksAreExact(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	st := syntheticStore(8 * trace.WindowRefs)
	want := make([]core.Results, len(cfgs))
	for i, sys := range newSystems(t, cfgs) {
		if err := core.ReplayStore(ctx, sys, st); err != nil {
			t.Fatal(err)
		}
		want[i] = sys.Results()
	}
	for _, tc := range []struct {
		name   string
		hooked bool
		opt    core.ShardOptions
	}{
		{"short-trace-auto", false, core.ShardOptions{}},
		{"forced-single-shard", false, core.ShardOptions{Shards: 1}},
		{"hooked-system", true, core.ShardOptions{Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			systems := newSystems(t, cfgs)
			if tc.hooked {
				systems[0].OnTraffic(func(mem.Addr) {})
			}
			if err := core.ReplayStoreMultiWindowed(ctx, systems, st, tc.opt); err != nil {
				t.Fatal(err)
			}
			if got := core.LastWindowShards(); got != 1 {
				t.Errorf("LastWindowShards = %d, want 1", got)
			}
			checkResults(t, tc.name, systems, want)
		})
	}
}

// TestForkMergeMatchesSequential pins Fork and Merge against a
// straight pass: a system replays the first half of a trace, a fork of
// it replays the rest, and the fork, with the first half's counters
// merged in, reads exactly the Results of one sequential replay. The
// fork starts from the true state at the split, so its deltas are
// exact, and Merge sums counters over any split of the stream.
func TestForkMergeMatchesSequential(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	st := recordTrace(t, "mgrid", 0.05)
	want := replayEach(t, cfgs, st)
	half := st.WindowCount() / 2
	for i, sys := range newSystems(t, cfgs) {
		if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{sys}, st, 0, half); err != nil {
			t.Fatal(err)
		}
		fork := sys.Fork()
		if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{fork}, st, half, 0); err != nil {
			t.Fatal(err)
		}
		fork.Merge(sys)
		if got := fork.Results(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("config %d: fork-merge results diverge from sequential\ngot  %+v\nwant %+v", i, got, want[i])
		}
	}
}
