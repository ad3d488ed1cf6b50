package core_test

// The window-sharded engine's byte-identical equivalence gates: the
// window-by-window oracle below proves every index checkpoint against
// plain sequential replays, and the worker-width test proves the
// parallel mode's results are a function of the chunk plan alone.
// These are the dynamic halves of the static determinism annotations:
//
//simlint:deterministic streamsim/internal/core.ReplayStoreMultiWindowed
//simlint:deterministic (*streamsim/internal/core.System).Merge

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
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

// windowed adapts the windowed engine at fixed options to the oracle's
// signature, so a test can range over every replay path.
func windowed(opt core.ShardOptions) func(context.Context, []*core.System, *trace.Store) error {
	return func(ctx context.Context, systems []*core.System, st *trace.Store) error {
		return core.ReplayStoreMultiWindowed(ctx, systems, st, opt)
	}
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

// TestReplayWindowedFallbacksAreExact pins the shapes that must refuse
// to shard — short traces, a forced single shard, and systems carrying
// traffic hooks — and checks each falls back to results byte-identical
// to a sequential replay, reporting shard width 1.
func TestReplayWindowedFallbacksAreExact(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	// 8 windows: enough for seeks to matter, too few for the auto plan.
	st := syntheticStore(8 * trace.WindowRefs)

	want := make([]core.Results, len(cfgs))
	for i, sys := range newSystems(t, cfgs) {
		if err := core.ReplayStore(ctx, sys, st); err != nil {
			t.Fatal(err)
		}
		want[i] = sys.Results()
	}

	check := func(t *testing.T, systems []*core.System, opt core.ShardOptions, n int) {
		t.Helper()
		if err := core.ReplayStoreMultiWindowed(ctx, systems[:n], st, opt); err != nil {
			t.Fatal(err)
		}
		if got := core.LastWindowShards(); got != 1 {
			t.Errorf("LastWindowShards = %d, want 1", got)
		}
		for i, sys := range systems[:n] {
			if got := sys.Results(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("config %d: fallback results diverge from sequential\ngot  %+v\nwant %+v",
					i, got, want[i])
			}
		}
	}

	t.Run("short-trace-auto", func(t *testing.T) {
		check(t, newSystems(t, cfgs), core.ShardOptions{}, len(cfgs))
	})
	t.Run("forced-single-shard", func(t *testing.T) {
		check(t, newSystems(t, cfgs), core.ShardOptions{Shards: 1}, len(cfgs))
	})
	t.Run("hooked-system", func(t *testing.T) {
		hooked := append([]core.Config(nil), cfgs...)
		var mu sync.Mutex
		var blocks []mem.Addr
		hooked[0].OnMemoryTraffic = func(blk mem.Addr) {
			mu.Lock()
			blocks = append(blocks, blk)
			mu.Unlock()
		}
		systems := newSystems(t, hooked)
		// Force a shard count that would split were the hook absent:
		// the engine must refuse and replay exactly.
		if err := core.ReplayStoreMultiWindowed(ctx, systems, st, core.ShardOptions{Shards: 4}); err != nil {
			t.Fatal(err)
		}
		if got := core.LastWindowShards(); got != 1 {
			t.Errorf("LastWindowShards with hooks = %d, want 1", got)
		}
		for i, sys := range systems {
			if got := sys.Results(); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("config %d: hooked fallback diverges from sequential", i)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(blocks) == 0 {
			t.Error("traffic hook never fired during fallback replay")
		}
	})
}

// TestReplayWindowedWorkerWidthInvariant pins the engine's central
// determinism claim: the chunk plan depends only on the trace and the
// options, so a sharded replay produces byte-identical results at any
// worker count — one goroutine or many. The engine runs GOMAXPROCS
// workers, so the test sets it and restores it.
func TestReplayWindowedWorkerWidthInvariant(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	st := recordTrace(t, "mgrid", 0.2)
	if st.WindowCount() < 8 {
		t.Fatalf("trace too short to shard: %d windows", st.WindowCount())
	}
	opt := core.ShardOptions{Shards: 4}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var want []core.Results
	for _, workers := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(workers)
		systems := newSystems(t, cfgs)
		if err := core.ReplayStoreMultiWindowed(ctx, systems, st, opt); err != nil {
			t.Fatal(err)
		}
		if got := core.LastWindowShards(); got != 4 {
			t.Errorf("LastWindowShards = %d, want 4", got)
		}
		res := make([]core.Results, len(systems))
		for i, sys := range systems {
			res[i] = sys.Results()
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("results at %d workers diverge from 1 worker", workers)
		}
	}
}

// TestReplayWindowedBoundedDivergence bounds the warmup approximation
// on a real workload: a sharded replay must present every reference
// exactly once (reference counts are exact, not approximate) and its
// rates must sit within a few points of the sequential truth — the
// only error source is each chunk's residual state after warmup.
func TestReplayWindowedBoundedDivergence(t *testing.T) {
	ctx := context.Background()
	cfgs := multiConfigs()
	st := recordTrace(t, "mgrid", 0.2)

	want := make([]core.Results, len(cfgs))
	for i, sys := range newSystems(t, cfgs) {
		if err := core.ReplayStore(ctx, sys, st); err != nil {
			t.Fatal(err)
		}
		want[i] = sys.Results()
	}

	systems := newSystems(t, cfgs)
	if err := core.ReplayStoreMultiWindowed(ctx, systems, st, core.ShardOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	// Rates are percentages; half a point bounds the residual-state
	// error comfortably (observed divergence is under a tenth of a
	// point) while still catching a broken merge or warmup.
	const tol = 0.5
	for i, sys := range systems {
		got := sys.Results()
		if g, w := got.L1I.Accesses+got.L1D.Accesses, want[i].L1I.Accesses+want[i].L1D.Accesses; g != w {
			t.Errorf("config %d: sharded replay presented %d refs, want exactly %d", i, g, w)
		}
		if g, w := got.DataMissRate(), want[i].DataMissRate(); math.Abs(g-w) > tol {
			t.Errorf("config %d: DataMissRate %v diverges from sequential %v by > %v", i, g, w, tol)
		}
		if g, w := got.StreamHitRate(), want[i].StreamHitRate(); math.Abs(g-w) > tol {
			t.Errorf("config %d: StreamHitRate %v diverges from sequential %v by > %v", i, g, w, tol)
		}
	}
}

// TestReplayWindowedCancel exercises the chunk worker pool under
// cancellation: a pre-cancelled context stops before any merge lands,
// and a mid-flight cancel (the simd service shape, race-clean under
// -race) reports context.Canceled, never a partial-success nil.
func TestReplayWindowedCancel(t *testing.T) {
	st := syntheticStore(64 * trace.WindowRefs)
	cfgs := multiConfigs()
	opt := core.ShardOptions{Shards: 8}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		systems := newSystems(t, cfgs)
		if err := core.ReplayStoreMultiWindowed(ctx, systems, st, opt); err != context.Canceled {
			t.Fatalf("ReplayStoreMultiWindowed = %v, want context.Canceled", err)
		}
		for i, sys := range systems {
			r := sys.Results()
			if consumed := r.L1I.Accesses + r.L1D.Accesses; consumed != 0 {
				t.Errorf("system %d merged %d refs after pre-cancel, want 0", i, consumed)
			}
		}
	})
	t.Run("mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		systems := newSystems(t, cfgs)
		var wg sync.WaitGroup
		wg.Add(1)
		errc := make(chan error, 1)
		go func() {
			defer wg.Done()
			errc <- core.ReplayStoreMultiWindowed(ctx, systems, st, opt)
		}()
		cancel()
		wg.Wait()
		if err := <-errc; err != nil && err != context.Canceled {
			t.Fatalf("ReplayStoreMultiWindowed = %v, want nil or context.Canceled", err)
		}
	})
	t.Run("exact-pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		systems := newSystems(t, cfgs)
		if err := replayWindowByWindow(ctx, systems, st); err != context.Canceled {
			t.Fatalf("window-by-window oracle = %v, want context.Canceled", err)
		}
	})
}

// TestReplayWindowedAutoRouting checks the windowed engine's routing
// at the edges: an empty system set is a no-op, and a forced two-shard
// plan splits a trace the auto plan would replay sequentially.
func TestReplayWindowedAutoRouting(t *testing.T) {
	ctx := context.Background()
	st := syntheticStore(4 * trace.WindowRefs)
	if err := core.ReplayStoreMultiWindowed(ctx, nil, st, core.ShardOptions{}); err != nil {
		t.Fatalf("empty system set: %v", err)
	}
	one := newSystems(t, multiConfigs()[:1])
	if err := core.ReplayStoreWindowed(ctx, one[0], st, core.ShardOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if got := core.LastWindowShards(); got != 2 {
		t.Errorf("LastWindowShards = %d, want 2", got)
	}
	if consumed := one[0].Results().L1D.Accesses; consumed != uint64(st.Len()) {
		t.Errorf("forced two-shard replay counted %d refs, want %d", consumed, st.Len())
	}
}
