package core

// Allocation-regression guards: the steady-state access path must not
// allocate, or multi-hundred-million-reference sweeps spend their time
// in the garbage collector. These gates, with timing's, workload's and
// `make bench-smoke`, are what holds that: any allocation on a path of
// Access, AccessBatch, AccessOutcome, a logged fan-out's step or a live
// or stored replay fails one of them. Check a planted allocation
// against each gate alone (go test -run '^Name$'): an amortized one,
// such as an append to a package slice, costs a gate only while the
// slice grows, and in a full package run that depends on what earlier
// tests appended.

import (
	"context"
	"runtime"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// warmedSystem builds a system (the default one has streams, filter
// and czones all active) and drives it past cold-start so steady state
// is measured.
func warmedSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	return warm(mustNew(t, cfg))
}

// warm drives sys past cold-start and returns it.
func warm(sys *System) *System {
	for i := 0; i < 1<<14; i++ {
		a := mem.Addr(1<<24 + i*8)
		sys.Access(mem.Access{Addr: a, Kind: mem.Read})
		if i%4 == 0 {
			sys.Access(mem.Access{Addr: 1<<20 + a%4096, Kind: mem.IFetch})
		}
		if i%7 == 0 {
			sys.Access(mem.Access{Addr: a, Kind: mem.Write})
		}
	}
	return sys
}

// TestAccessDoesNotAllocate gates Access on the default system and on
// every component row (componentRows), so each component's steady
// state is measured, not only the default system's. Each call group
// adds four scattered reads, a scattered instruction fetch and a
// scattered store to a sequential read, write and instruction fetch.
// The reads miss the L1, the streams and the unit filter, so the
// stride detector observes each, and an allocation per observation
// shows although AllocsPerRun rounds its average down. The fetch
// misses into the instruction stream set of the partitioned row, and
// the store misses the no-write-allocate row's data cache.
func TestAccessDoesNotAllocate(t *testing.T) {
	rows := append([]componentRow{{"default", DefaultConfig(), false}}, componentRows()...)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sys := warm(row.build(t))
			i := 0
			avg := testing.AllocsPerRun(10000, func() {
				a := mem.Addr(1<<24 + i*64)
				sys.Access(mem.Access{Addr: a, Kind: mem.Read})
				sys.Access(mem.Access{Addr: a + 8, Kind: mem.Write})
				sys.Access(mem.Access{Addr: 1 << 20, Kind: mem.IFetch})
				for k := 0; k < 4; k++ {
					scattered := mem.Addr(uint32(4*i+k)*2654435761>>12) << 6
					sys.Access(mem.Access{Addr: 1<<28 + scattered, Kind: mem.Read})
				}
				scattered := mem.Addr(uint32(i)*2654435761>>12) << 6
				sys.Access(mem.Access{Addr: 1<<29 + scattered, Kind: mem.IFetch})
				sys.Access(mem.Access{Addr: 1<<30 + scattered, Kind: mem.Write})
				i++
			})
			if avg != 0 {
				t.Errorf("Access allocates %v times per call group; want 0", avg)
			}
		})
	}
}

func TestAccessOutcomeDoesNotAllocate(t *testing.T) {
	sys := warmedSystem(t, DefaultConfig())
	i := 0
	avg := testing.AllocsPerRun(10000, func() {
		sys.AccessOutcome(mem.Access{Addr: mem.Addr(1<<24 + i*64), Kind: mem.Read})
		i++
	})
	if avg != 0 {
		t.Errorf("AccessOutcome allocates %v times per call; want 0", avg)
	}
}

func TestAccessBatchDoesNotAllocate(t *testing.T) {
	sys := warmedSystem(t, DefaultConfig())
	batch := make([]mem.Access, 256)
	base := mem.Addr(1 << 24)
	avg := testing.AllocsPerRun(1000, func() {
		for j := range batch {
			batch[j] = mem.Access{Addr: base + mem.Addr(j*8), Kind: mem.Read}
		}
		batch[0].Kind = mem.IFetch
		batch[0].Addr = 1 << 20
		sys.AccessBatch(batch)
		base += 64
	})
	if avg != 0 {
		t.Errorf("AccessBatch allocates %v times per 256-access batch; want 0", avg)
	}
}

// TestLoggedStepDoesNotAllocate drives the per-batch step of a logged
// fan-out: a leader logging its misses, a follower replaying the tap
// one logged reference at a time, and a second class's lone leader.
// Then it drives the plan's replay loop over a one-batch store, so an
// allocation per replay call shows too.
func TestLoggedStepDoesNotAllocate(t *testing.T) {
	plain := DefaultConfig()
	plain.UnitFilterEntries, plain.Stride = 0, NoStrideDetection
	lru := DefaultConfig()
	lru.L1D.Replacement, lru.VictimEntries = cache.LRU, 4
	var systems []*System
	for _, cfg := range []Config{DefaultConfig(), plain, lru} {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	p := planFronts(systems, true, nil, nil)
	defer p.settle(true)
	batch := make([]uint64, trace.ReplayBatchLen)
	base := uint64(1 << 24)
	fill := func() {
		for j := range batch {
			kind := mem.Read
			switch {
			case j%16 == 0:
				kind = mem.IFetch
			case j%5 == 0:
				kind = mem.Write
			}
			batch[j] = (base+uint64(j*24))<<2 | uint64(kind)
		}
		base += uint64(len(batch) * 24)
	}
	for i := 0; i < 64; i++ {
		fill()
		p.step(batch, len(batch))
	}
	if len(systems[1].MissLog()) == 0 {
		t.Fatal("warm-up batch logged no misses; the test would not exercise the logs")
	}
	avg := testing.AllocsPerRun(200, func() {
		fill()
		p.step(batch, len(batch))
	})
	if avg != 0 {
		t.Errorf("a logged step allocates %v times per batch; want 0", avg)
	}
	st := trace.NewStore(0)
	for _, w := range batch {
		st.Append(mem.Access{Addr: mem.Addr(w >> 2), Kind: mem.Kind(w & 3)})
	}
	avg = testing.AllocsPerRun(200, func() {
		it := st.Iter()
		if err := p.replay(context.Background(), &it, st.Len(), batch, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("the plan's replay loop allocates %v times per call; want 0", avg)
	}
}

// TestReplayAllocationsDoNotGrow gates a whole replay, not one call:
// replaying the first window of a trace and the whole trace must
// allocate the same total, so nothing on any path allocates per
// reference or per event. The per-call gates above divide a sampled
// total by the call count, which rounds away an allocation made on a
// rare path, such as the drop of a stream entry a write-back
// invalidated; a total over a whole replay does not. The trace's first
// window only reads, so it writes nothing back, and the is kernel after
// it invalidates thousands of stream entries in the 4 KB L1s'
// configuration. The fan-out adds every component row, so the rare
// paths of each component count too: a victim hit on a dirty line, an
// unsampled reference, a stride detector without the unit filter.
func TestReplayAllocationsDoNotGrow(t *testing.T) {
	st := trace.NewStore(0)
	for i := 0; i < trace.WindowRefs; i++ {
		st.Append(mem.Access{Addr: mem.Addr(1<<30 + 64*i), Kind: mem.Read})
	}
	w, err := workload.New("is", workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(st, 0.01); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.L1I.SizeBytes, cfg.L1D.SizeBytes = 4<<10, 4<<10
	replay := func(windows int) (allocs float64, invalidations uint64) {
		allocs = testing.AllocsPerRun(1, func() {
			systems := []*System{mustNew(t, cfg)}
			for _, row := range componentRows() {
				systems = append(systems, row.build(t))
			}
			if err := ReplayStoreMultiPrefixFrom(context.Background(), systems, st, 0, windows); err != nil {
				t.Fatal(err)
			}
			invalidations = systems[0].Results().Streams.Invalidations
		})
		return allocs, invalidations
	}
	short, shortInv := replay(1)
	long, longInv := replay(st.WindowCount())
	if shortInv != 0 || longInv < 1000 {
		t.Fatalf("the first window invalidates %d stream entries and the whole trace %d; want 0 and thousands", shortInv, longInv)
	}
	if short != long {
		t.Errorf("replaying one window allocates %v times, all %d windows %v times; want equal", short, st.WindowCount(), long)
	}
}

// frontMap is a FrontMemo of one recording, a front per key.
type frontMap map[frontKey]*Front

func (m frontMap) Front(cfg Config) *Front {
	for _, f := range m {
		if f.Serves(cfg) {
			return f
		}
	}
	return nil
}

func (m frontMap) AddFront(f *Front) { m[f.key] = f }

// recordOnly stores fronts and serves none, so every replay through it
// records its front.
type recordOnly struct{ frontMap }

func (recordOnly) Front(Config) *Front { return nil }

// TestStoredReplayAllocationsDoNotGrow gates a replay served from a
// stored front the way TestReplayAllocationsDoNotGrow gates a live one:
// served from the front of a one-window trace and from the front of a
// trace of many windows, the same systems allocate the same total,
// with and without miss logs, so decoding a stored front and replaying
// it through the backends allocates nothing per batch or per event.
// Recording a front allocates a few times more over the long trace at
// most: its log grows by doubling from half a byte per reference, and
// an allocation per batch would add over a thousand.
// The long trace is TestReplayAllocationsDoNotGrow's, whose write-backs
// invalidate thousands of stream entries. The process's first garbage
// collection starts the collector's worker goroutines, an allocation
// each, so the test collects once before it measures: otherwise a
// first collection that lands in a measured replay counts against it.
func TestStoredReplayAllocationsDoNotGrow(t *testing.T) {
	runtime.GC()
	short, long := trace.NewStore(0), trace.NewStore(0)
	for i := 0; i < trace.WindowRefs; i++ {
		a := mem.Access{Addr: mem.Addr(1<<30 + 64*i), Kind: mem.Read}
		short.Append(a)
		long.Append(a)
	}
	w, err := workload.New("is", workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(long, 0.01); err != nil {
		t.Fatal(err)
	}
	plain := DefaultConfig()
	plain.L1I.SizeBytes, plain.L1D.SizeBytes = 4<<10, 4<<10
	filtered := plain
	plain.UnitFilterEntries, plain.Stride = 0, NoStrideDetection
	ctx := context.Background()
	batches := 0
	visit := func(int) { batches++ }
	replay := func(st *trace.Store, memo FrontMemo, visit func(int)) (allocs float64, invalidations uint64) {
		allocs = testing.AllocsPerRun(1, func() {
			systems := []*System{mustNew(t, plain), mustNew(t, filtered)}
			if err := ReplayStoreFronts(ctx, systems, st, memo, visit); err != nil {
				t.Fatal(err)
			}
			invalidations = systems[0].Results().Streams.Invalidations
		})
		return allocs, invalidations
	}
	shortMemo, longMemo := frontMap{}, frontMap{}
	shortRec, _ := replay(short, recordOnly{shortMemo}, nil)
	longRec, _ := replay(long, recordOnly{longMemo}, nil)
	if len(shortMemo) == 0 || len(longMemo) == 0 {
		t.Fatal("the recording replays stored no front")
	}
	if longRec > shortRec+32 {
		t.Errorf("recording a front allocates %v times over one window and %v over %d batches; want at most 32 more",
			shortRec, longRec, long.Len()/trace.ReplayBatchLen)
	}
	for _, logged := range []func(int){nil, visit} {
		shortAllocs, shortInv := replay(short, shortMemo, logged)
		longAllocs, longInv := replay(long, longMemo, logged)
		if shortInv != 0 || longInv < 1000 {
			t.Fatalf("the one-window trace invalidates %d stream entries and the long one %d; want 0 and thousands", shortInv, longInv)
		}
		if shortAllocs != longAllocs {
			t.Errorf("served from stored fronts (logged %v), a one-window replay allocates %v times, a %d-window one %v times; want equal",
				logged != nil, shortAllocs, long.WindowCount(), longAllocs)
		}
	}
	if batches == 0 {
		t.Error("the logged replays called back no batch")
	}
}
