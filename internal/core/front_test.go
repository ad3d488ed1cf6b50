package core_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/timing"
	"streamsim/internal/workload"
)

// testMemo is a core.FrontMemo of one recording: it keeps the first
// front of each key and counts the lookups it answers.
type testMemo struct {
	mu     sync.Mutex
	fronts []*core.Front
	hits   int
}

func (m *testMemo) Front(cfg core.Config) *core.Front {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.fronts {
		if f.Serves(cfg) {
			m.hits++
			return f
		}
	}
	return nil
}

func (m *testMemo) AddFront(f *core.Front) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.fronts {
		if g.SameFront(f) {
			return
		}
	}
	m.fronts = append(m.fronts, f)
}

// frontMemoConfigs is three front classes, interleaved: the paper's
// L1s under the four systems of its evaluation (no streams, ten plain
// streams, the unit filter, the czone scheme); direct-mapped LRU L1s
// with 4-entry victim buffers under plain and partitioned streams; and
// a set-sampled instruction cache with a no-write-allocate data cache,
// LRU, behind victim buffers, under partitioned streams and none. So
// the stored fronts hold every front level: fills, victim hits,
// stores that fill nothing and unsampled references.
func frontMemoConfigs() []core.Config {
	paper := multiConfigs()
	victim := func(streams int, partitioned bool) core.Config {
		cfg := core.DefaultConfig()
		cfg.L1I.Assoc, cfg.L1D.Assoc = 1, 1
		cfg.L1I.Replacement, cfg.L1D.Replacement = cache.LRU, cache.LRU
		cfg.VictimEntries = 4
		cfg.Streams = stream.Config{Streams: streams, Depth: 2}
		cfg.PartitionedStreams = partitioned && streams > 0
		cfg.UnitFilterEntries = 0
		cfg.Stride = core.NoStrideDetection
		return cfg
	}
	odd := func(cfg core.Config) core.Config {
		cfg.L1I.Assoc, cfg.L1D.Assoc = 4, 4
		cfg.L1I.SampleEvery = 2
		cfg.L1D.Alloc = cache.NoWriteAllocate
		return cfg
	}
	return []core.Config{
		paper[0], victim(2, false), odd(victim(4, true)), paper[2],
		victim(4, true), paper[3], odd(victim(0, false)), paper[4],
	}
}

// frontMemoHooked are the systems of frontMemoConfigs that observe
// their traffic: one per front class.
var frontMemoHooked = []int{4, 6, 7}

// hookedSystems builds a system per configuration and hooks the ones
// frontMemoHooked names, returning the traffic each hooked one sees.
func hookedSystems(t *testing.T, cfgs []core.Config) ([]*core.System, [][]mem.Addr) {
	t.Helper()
	systems := newSystems(t, cfgs)
	traffic := make([][]mem.Addr, len(cfgs))
	for _, i := range frontMemoHooked {
		systems[i].OnTraffic(func(blk mem.Addr) { traffic[i] = append(traffic[i], blk) })
	}
	return systems, traffic
}

// frontMemoTimed is the timed oracle set over the same three fronts:
// models with and without a secondary cache, at several bus speeds.
func frontMemoTimed(t *testing.T) []*timing.Model {
	t.Helper()
	cfgs := frontMemoConfigs()
	l2 := cache.Config{
		Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	}
	lat := func(bus uint64) timing.Latencies {
		l := timing.DefaultLatencies()
		l.BusBlock = bus
		return l
	}
	var models []*timing.Model
	for i, cfg := range cfgs {
		var m *timing.Model
		var err error
		if i%3 == 0 {
			m, err = timing.NewWithL2(cfg, l2, lat(3))
		} else {
			m, err = timing.New(cfg, lat(uint64(8*(i%2))))
		}
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// checkTimed compares each model's ledger, results and secondary cache
// with want's.
func checkTimed(t *testing.T, what string, got, want []*timing.Model) {
	t.Helper()
	for i := range got {
		if g, w := got[i].Stats(), want[i].Stats(); g != w {
			t.Errorf("%s: model %d timing ledger:\ngot  %+v\nwant %+v", what, i, g, w)
		}
		if g, w := got[i].Results(), want[i].Results(); g != w {
			t.Errorf("%s: model %d results:\ngot  %+v\nwant %+v", what, i, g, w)
		}
		if l2 := got[i].L2(); l2 != nil && l2.Stats() != want[i].L2().Stats() {
			t.Errorf("%s: model %d L2:\ngot  %+v\nwant %+v", what, i, l2.Stats(), want[i].L2().Stats())
		}
	}
}

// TestStoredFrontMatchesLive is the front memo's oracle, on the ten
// Table 1 workloads whose traces at scale 0.02 are under 700K
// references. The other five (spec77, bdna, qcd, and fftpde and trfd,
// which floor at 5.5M references at any small scale) would more than
// double the package's time under -race; the paper pass's golden,
// which every artefact after Table 1 replays from stored fronts,
// covers them. A replay that records the three classes' fronts,
// and a replay served from them without a decode or an L1 probe, both
// leave every system's Results equal (==) to a solo ReplayStore, and
// every hooked system sees the traffic sequence a solo hooked replay
// sees. The timed models, served from those fronts or from fronts a
// timed replay recorded, end with the ledgers, Results and secondary
// caches of a live timing.Replay; and an untimed replay served from
// the fronts a timed replay recorded matches too.
//
//simlint:deterministic streamsim/internal/core.ReplayStoreFronts
func TestStoredFrontMatchesLive(t *testing.T) {
	const scale = 0.02
	ctx := context.Background()
	cfgs := frontMemoConfigs()
	for _, name := range workload.Names() {
		if workload.EstimateRefs(name, workload.SizeSmall, scale) > 700_000 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			st := recordTrace(t, name, scale)
			want := replayEach(t, cfgs, st)
			wantTraffic := make([][]mem.Addr, len(cfgs))
			for _, i := range frontMemoHooked {
				sys := newSystems(t, cfgs[i:i+1])[0]
				sys.OnTraffic(func(blk mem.Addr) { wantTraffic[i] = append(wantTraffic[i], blk) })
				if err := core.ReplayStore(ctx, sys, st); err != nil {
					t.Fatal(err)
				}
			}
			untimed := func(what string, memo *testMemo, wantHits int) {
				t.Helper()
				hits0 := memo.hits
				systems, traffic := hookedSystems(t, cfgs)
				if err := core.ReplayStoreFronts(ctx, systems, st, memo, nil); err != nil {
					t.Fatal(err)
				}
				if got := memo.hits - hits0; got != wantHits {
					t.Errorf("%s: %d classes served from stored fronts, want %d", what, got, wantHits)
				}
				for i, sys := range systems {
					if got := sys.Results(); got != want[i] {
						t.Errorf("%s: config %d differs from a solo replay:\ngot  %+v\nwant %+v", what, i, got, want[i])
					}
				}
				for _, i := range frontMemoHooked {
					if !slices.Equal(traffic[i], wantTraffic[i]) {
						t.Errorf("%s: config %d saw %d traffic blocks, a solo replay %d, or in another order",
							what, i, len(traffic[i]), len(wantTraffic[i]))
					}
				}
			}
			memo := &testMemo{}
			untimed("recording", memo, 0)
			if len(memo.fronts) != 3 {
				t.Fatalf("the recording replay stored %d fronts, want 3", len(memo.fronts))
			}
			untimed("served", memo, 3)

			live := frontMemoTimed(t)
			if err := timing.Replay(ctx, live, st, nil); err != nil {
				t.Fatal(err)
			}
			timedMemo := &testMemo{}
			for _, tc := range []struct {
				what     string
				memo     *testMemo
				wantHits int
			}{
				{"timed, served from untimed fronts", memo, 3},
				{"timed, recording", timedMemo, 0},
				{"timed, served from timed fronts", timedMemo, 3},
			} {
				hits0 := tc.memo.hits
				got := frontMemoTimed(t)
				if err := timing.Replay(ctx, got, st, tc.memo); err != nil {
					t.Fatal(err)
				}
				if n := tc.memo.hits - hits0; n != tc.wantHits {
					t.Errorf("%s: %d classes served from stored fronts, want %d", tc.what, n, tc.wantHits)
				}
				checkTimed(t, tc.what, got, live)
			}
			untimed("served from timed fronts", timedMemo, 3)
		})
	}
}

// TestStoredFrontEndState: a system served from a stored front leaves
// the replay with the front's end state, counting into its own
// counters, so it continues a second trace exactly like a solo system
// that replayed both, and so does its checkpoint's restore.
func TestStoredFrontEndState(t *testing.T) {
	ctx := context.Background()
	first := recordTrace(t, "mgrid", 0.02)
	second := recordTrace(t, "cgm", 0.02)
	cfgs := frontMemoConfigs()
	memo := &testMemo{}
	if err := core.ReplayStoreFronts(ctx, newSystems(t, cfgs), first, memo, nil); err != nil {
		t.Fatal(err)
	}
	systems := newSystems(t, cfgs)
	if err := core.ReplayStoreFronts(ctx, systems, first, memo, nil); err != nil {
		t.Fatal(err)
	}
	if memo.hits != 3 {
		t.Fatalf("%d classes served from stored fronts, want 3", memo.hits)
	}
	for i, sys := range systems {
		solo := newSystems(t, cfgs[i:i+1])[0]
		if err := core.ReplayStore(ctx, solo, first); err != nil {
			t.Fatal(err)
		}
		restored := sys.Checkpoint().Restore()
		for _, s := range []*core.System{solo, sys, restored} {
			if err := core.ReplayStore(ctx, s, second); err != nil {
				t.Fatal(err)
			}
		}
		want := solo.Results()
		if got := sys.Results(); !reflect.DeepEqual(got, want) {
			t.Errorf("config %d diverges from a solo system after the second trace:\ngot  %+v\nwant %+v", i, got, want)
		}
		if got := restored.Results(); !reflect.DeepEqual(got, want) {
			t.Errorf("config %d's restored checkpoint diverges after the second trace:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// TestStoredFrontRules: only fresh systems use a front memo, a
// cancelled replay stores no front, and a cancelled replay served from
// a stored front reports the cancellation.
func TestStoredFrontRules(t *testing.T) {
	ctx := context.Background()
	st := recordTrace(t, "mgrid", 0.02)
	cfgs := frontMemoConfigs()

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	memo := &testMemo{}
	if err := core.ReplayStoreFronts(cctx, newSystems(t, cfgs), st, memo, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled recording replay returned %v", err)
	}
	if len(memo.fronts) != 0 {
		t.Errorf("a cancelled replay stored %d fronts", len(memo.fronts))
	}
	batches := 0
	cctx, cancel = context.WithCancel(ctx)
	err := core.ReplayStoreFronts(cctx, newSystems(t, cfgs), st, memo, func(int) {
		if batches++; batches == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || len(memo.fronts) != 0 {
		t.Errorf("a replay cancelled mid-trace returned %v and stored %d fronts", err, len(memo.fronts))
	}

	if err := core.ReplayStoreFronts(ctx, newSystems(t, cfgs), st, memo, nil); err != nil {
		t.Fatal(err)
	}
	batches = 0
	cctx, cancel = context.WithCancel(ctx)
	err = core.ReplayStoreFronts(cctx, newSystems(t, cfgs), st, memo, func(int) {
		if batches++; batches == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || batches != 3 {
		t.Errorf("a served replay cancelled after batch 3 returned %v after %d batches", err, batches)
	}

	// A system that has seen a reference is not fresh: its class
	// replays live and records nothing.
	used := newSystems(t, cfgs)
	used[0].Access(mem.Access{Addr: 1 << 20, Kind: mem.Read})
	hits0 := memo.hits
	if err := core.ReplayStoreFronts(ctx, used, st, memo, nil); err != nil {
		t.Fatal(err)
	}
	if got := memo.hits - hits0; got != 2 {
		t.Errorf("%d classes served with one class not fresh, want 2", got)
	}
}
