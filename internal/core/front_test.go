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
// front offered and counts the fronts offered and the lookups it
// answers.
type testMemo struct {
	mu    sync.Mutex
	front *core.Front
	adds  int
	hits  int
}

func (m *testMemo) Front() *core.Front {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.front != nil {
		m.hits++
	}
	return m.front
}

func (m *testMemo) AddFront(f *core.Front) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adds++
	if m.front == nil {
		m.front = f
	}
}

// frontMemoConfigs is three front classes, interleaved: the paper's
// L1s under the four systems of its evaluation (no streams, ten plain
// streams, the unit filter, the czone scheme); direct-mapped LRU L1s
// with 4-entry victim buffers under plain and partitioned streams; and
// a set-sampled instruction cache with a no-write-allocate data cache,
// LRU, behind victim buffers, under partitioned streams and none. Only
// the paper's class is served from a stored front or records one; the
// other two replay live beside it, with victim hits, stores that fill
// nothing and unsampled references.
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

// frontMemoTimed is the timed oracle set over the same three front
// classes: models with and without a secondary cache, at several bus
// speeds.
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
// covers them. A replay that records the paper's front, and a replay
// that serves the paper's class from it without a decode or an L1
// probe, both leave every system's Results equal (==) to a solo
// ReplayStore, and every hooked system sees the traffic sequence a
// solo hooked replay sees; the other two classes replay live each time
// and record nothing. The timed models, served from
// that front or from the front a timed replay recorded, end with the
// ledgers, Results and secondary caches of a live timing.Replay; and an
// untimed replay served from the front a timed replay recorded matches
// too.
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
			if memo.adds != 1 {
				t.Fatalf("the recording replay offered %d fronts, want the paper's only", memo.adds)
			}
			untimed("served", memo, 1)

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
				{"timed, served from the untimed front", memo, 1},
				{"timed, recording", timedMemo, 0},
				{"timed, served from the timed front", timedMemo, 1},
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
			untimed("served from the timed front", timedMemo, 1)
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
	if memo.hits != 1 {
		t.Fatalf("%d classes served from the stored front, want 1", memo.hits)
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

// TestStoredFrontRules: only fresh systems with the paper's L1s use a
// front memo, a cancelled replay stores no front, and a cancelled
// replay served from a stored front reports the cancellation.
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
	if memo.adds != 0 {
		t.Errorf("a cancelled replay stored %d fronts", memo.adds)
	}
	batches := 0
	cctx, cancel = context.WithCancel(ctx)
	err := core.ReplayStoreFronts(cctx, newSystems(t, cfgs), st, memo, func(int) {
		if batches++; batches == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || memo.adds != 0 {
		t.Errorf("a replay cancelled mid-trace returned %v and stored %d fronts", err, memo.adds)
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

	// A class with a system that has seen a reference is not fresh: it
	// replays live, neither served from the stored front nor recording
	// one. So do the other L1s' classes, fresh or not.
	for _, m := range []*testMemo{memo, {}} {
		used := newSystems(t, cfgs)
		used[0].Access(mem.Access{Addr: 1 << 20, Kind: mem.Read})
		hits0, adds0 := m.hits, m.adds
		if err := core.ReplayStoreFronts(ctx, used, st, m, nil); err != nil {
			t.Fatal(err)
		}
		if m.hits != hits0 || m.adds != adds0 {
			t.Errorf("with the paper's class not fresh, %d classes were served and %d fronts recorded, want none",
				m.hits-hits0, m.adds-adds0)
		}
	}
	other := &testMemo{}
	if err := core.ReplayStoreFronts(ctx, newSystems(t, []core.Config{cfgs[1], cfgs[2], cfgs[4], cfgs[6]}), st, other, nil); err != nil {
		t.Fatal(err)
	}
	if other.adds != 0 {
		t.Errorf("fresh classes of other L1s recorded %d fronts, want none", other.adds)
	}
}
