package sweeprun

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"streamsim/internal/core"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// encoded serializes a store's full event order through the trace
// file codec, so two recordings compare byte for byte.
func encoded(t *testing.T, st *trace.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if err := st.ReplayContext(context.Background(), w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recorder returns the cache key of a small embar recording and the
// function that records it under a given context.
func recorder(t *testing.T, scale float64) (traceKey, func(context.Context) (*trace.Store, error)) {
	t.Helper()
	w, err := BuildWorkload("embar", "small")
	if err != nil {
		t.Fatal(err)
	}
	return traceKey{"embar", workload.SizeSmall, scale}, func(ctx context.Context) (*trace.Store, error) {
		return recordTrace(ctx, w, workload.SizeSmall, scale)
	}
}

func TestRecordOneStorePerKey(t *testing.T) {
	ResetTraceCache()
	hits0 := TraceCacheStats().Hits
	const callers = 8
	stores := make([]*trace.Store, callers)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, err := Record(context.Background(), "embar", "small", 0.02)
			if err != nil {
				t.Error(err)
			}
			stores[i] = st
		}()
	}
	wg.Wait()
	for i, st := range stores {
		if st == nil || st != stores[0] {
			t.Fatalf("caller %d got store %p, caller 0 got %p", i, st, stores[0])
		}
	}
	if hits := TraceCacheStats().Hits - hits0; hits != callers-1 {
		t.Errorf("%d of %d callers got a cached store, want %d", hits, callers, callers-1)
	}
	if got := TraceCacheStats().Entries; got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
}

// TestTraceCacheCancelledRecording: a caller cancelled mid-recording
// leaves no entry and does not disturb a concurrent caller of the same
// key, which records under its own context and gets a complete
// recording. A lookup on an ended context reports it, even on a hit.
func TestTraceCacheCancelledRecording(t *testing.T) {
	key, record := recorder(t, 0.02)
	fresh, err := record(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c := newTraceCache(traceCacheBudget)
	started := make(chan struct{})
	cctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		st, err := c.get(cctx, key, func() (*trace.Store, error) {
			close(started)
			<-cctx.Done()
			return record(cctx)
		})
		if st != nil {
			t.Errorf("cancelled caller got store %p", st)
		}
		cancelled <- err
	}()
	<-started

	st, err := c.get(context.Background(), key, func() (*trace.Store, error) { return record(context.Background()) })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	if !bytes.Equal(encoded(t, st), encoded(t, fresh)) {
		t.Error("the concurrent caller's recording differs from a fresh one")
	}
	c.mu.Lock()
	n, el := len(c.entries), c.entries[key]
	c.mu.Unlock()
	if n != 1 || el == nil || el.Value.(*traceEntry).store != st {
		t.Errorf("cache holds %d entries, want only the completed recording", n)
	}
	if _, err := c.get(cctx, key, func() (*trace.Store, error) { return record(cctx) }); !errors.Is(err, context.Canceled) {
		t.Errorf("hit on a cancelled context = %v, want context.Canceled", err)
	}
}

// TestTraceCacheEvictsLeastRecentlyUsed: past the budget the least
// recently used recording is dropped, and recording it again gives
// the same bytes.
func TestTraceCacheEvictsLeastRecentlyUsed(t *testing.T) {
	keyA, recA := recorder(t, 0.02)
	keyB, recB := recorder(t, 0.03)
	keyC, recC := recorder(t, 0.04)
	c := newTraceCache(traceCacheBudget)
	get := func(key traceKey, rec func(context.Context) (*trace.Store, error)) *trace.Store {
		t.Helper()
		st, err := c.get(context.Background(), key, func() (*trace.Store, error) { return rec(context.Background()) })
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := get(keyA, recA), get(keyB, recB)
	stC, err := recC(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.budget = int64(a.Footprint()+b.Footprint()+stC.Footprint()) - 1
	c.mu.Unlock()

	get(keyA, recA) // A is now more recent than B
	get(keyC, recC)
	if n := c.evictions.Load(); n != 1 {
		t.Fatalf("%d evictions, want 1", n)
	}
	c.mu.Lock()
	hasA, hasB := c.entries[keyA] != nil, c.entries[keyB] != nil
	c.mu.Unlock()
	if !hasA || hasB {
		t.Fatalf("after eviction A cached %v, B cached %v; want only B evicted", hasA, hasB)
	}
	if got, want := c.bytes.Load(), int64(a.Footprint()+stC.Footprint()); got != want {
		t.Errorf("resident bytes %d, want %d", got, want)
	}
	b2 := get(keyB, recB)
	if b2 == b {
		t.Fatal("an evicted recording was served from the cache")
	}
	if !bytes.Equal(encoded(t, b2), encoded(t, b)) {
		t.Error("re-recording an evicted input changed its bytes")
	}
}

// TestTraceCacheBudgetCoversNamedInputs: the preallocations Record
// makes for every named input at scale 1 fit the budget together.
func TestTraceCacheBudgetCoversNamedInputs(t *testing.T) {
	const n = 1 << 10
	perRef := int64(trace.NewStore(n).Footprint() / n)
	var total int64
	inputs := 0
	for _, name := range workload.Names() {
		for _, size := range []workload.Size{workload.SizeSmall, workload.SizeLarge} {
			if _, err := workload.New(name, size); err != nil {
				continue // only the Table 4 benchmarks have a large input
			}
			inputs++
			total += int64(workload.EstimateRefs(name, size, 1)) * perRef
		}
	}
	if inputs != 20 {
		t.Errorf("%d named inputs, want 20 (15 small, 5 large)", inputs)
	}
	if total > traceCacheBudget {
		t.Errorf("named inputs preallocate %d MB, over the %d MB budget", total>>20, traceCacheBudget>>20)
	}
	t.Logf("%d named inputs preallocate %d MiB of the %d MiB budget", inputs, total>>20, traceCacheBudget>>20)
}

// TestScaleOutOfRange: NaN, infinities, zero and values just above one
// are rejected by Record and by Spec.Validate, where zero instead
// selects the default scale.
func TestScaleOutOfRange(t *testing.T) {
	cases := []struct {
		scale  float64
		specOK bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{0, true},
		{math.Nextafter(1, 2), false},
	}
	for _, tc := range cases {
		if _, _, err := Record(context.Background(), "mgrid", "small", tc.scale); err == nil {
			t.Errorf("Record accepted scale %v", tc.scale)
		}
		s := baseSpec("hit")
		s.Scale = tc.scale
		if err := s.Validate(); (err == nil) != tc.specOK {
			t.Errorf("Validate(scale %v) = %v, want ok=%v", tc.scale, err, tc.specOK)
		}
	}
}

// standIn is a stand-in whole-trace replay for the memo tests: it
// marks each Results with its configuration's stream count and appends
// the count to *replayed.
func standIn(replayed *[]int) func(context.Context, *trace.Store, core.FrontMemo, []core.Config) ([]core.Results, error) {
	return func(_ context.Context, _ *trace.Store, _ core.FrontMemo, cfgs []core.Config) ([]core.Results, error) {
		res := make([]core.Results, len(cfgs))
		for i, c := range cfgs {
			*replayed = append(*replayed, c.Streams.Streams)
			res[i].Instructions = uint64(c.Streams.Streams)
		}
		return res, nil
	}
}

// streamsConfigs returns the paper's configuration at each stream
// count.
func streamsConfigs(streams ...int) []core.Config {
	cfgs := make([]core.Config, len(streams))
	for i, n := range streams {
		cfgs[i] = core.DefaultConfig()
		cfgs[i].Streams.Streams = n
	}
	return cfgs
}

// TestResultsMemoRules drives the results memo of a cache of its own
// with the stand-in replay. A configuration replays once per recording
// and is answered from the memo after, in the caller's order; each
// entry is charged to the budget; a real replay cancelled mid-call
// memoizes nothing; a replay whose recording was dropped and recorded
// again meanwhile memoizes nothing into the new recording's entry,
// whose memo the reset emptied; and a memo that outgrows the budget is
// evicted with its recording, releasing its bytes.
func TestResultsMemoRules(t *testing.T) {
	ctx := context.Background()
	key, rec := recorder(t, 0.02)
	c := newTraceCache(traceCacheBudget)
	get := func() *trace.Store {
		t.Helper()
		st, err := c.get(ctx, key, func() (*trace.Store, error) { return rec(ctx) })
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var replayed []int
	replay := standIn(&replayed)
	results := func(replay func(context.Context, *trace.Store, core.FrontMemo, []core.Config) ([]core.Results, error), streams ...int) ([]core.Results, error) {
		t.Helper()
		return c.results(ctx, key, get(), streamsConfigs(streams...), replay)
	}
	expect := func(what string, res []core.Results, wantReplayed []int, wantEntries int64, streams ...int) {
		t.Helper()
		if !slices.Equal(replayed, wantReplayed) {
			t.Errorf("%s: replayed stream counts %v, want %v", what, replayed, wantReplayed)
		}
		for i, n := range streams {
			if res[i].Instructions != uint64(n) {
				t.Errorf("%s: result %d is for %d streams, want %d", what, i, res[i].Instructions, n)
			}
		}
		if got := c.memoEntries.Load(); got != wantEntries {
			t.Errorf("%s: memo holds %d results, want %d", what, got, wantEntries)
		}
		c.mu.Lock()
		e := c.entries[key].Value.(*traceEntry)
		c.mu.Unlock()
		if want := int64(e.store.Footprint()) + wantEntries*memoEntryBytes; e.bytes != want || c.bytes.Load() != want {
			t.Errorf("%s: the entry charges %d bytes and the cache %d, want %d", what, e.bytes, c.bytes.Load(), want)
		}
		replayed = nil
	}

	res, err := results(replay, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	expect("cold", res, []int{2, 4}, 2, 2, 4)
	hits0 := c.memoHits.Load()
	if res, err = results(replay, 4, 8, 2); err != nil {
		t.Fatal(err)
	}
	expect("warm", res, []int{8}, 3, 4, 8, 2)
	if hits := c.memoHits.Load() - hits0; hits != 2 {
		t.Errorf("%d memo hits, want 2", hits)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancelled := func(ctx context.Context, st *trace.Store, fronts core.FrontMemo, cfgs []core.Config) ([]core.Results, error) {
		cancel()
		return replayFresh(cctx, st, fronts, cfgs)
	}
	if _, err := results(cancelled, 6); !errors.Is(err, context.Canceled) {
		t.Fatalf("a replay cancelled mid-call returned %v", err)
	}
	expect("cancelled", nil, nil, 3)

	rerecorded := func(ctx context.Context, st *trace.Store, fronts core.FrontMemo, cfgs []core.Config) ([]core.Results, error) {
		c.reset()
		get()
		return replay(ctx, st, fronts, cfgs)
	}
	if res, err = results(rerecorded, 6); err != nil {
		t.Fatal(err)
	}
	expect("re-recorded meanwhile", res, []int{6}, 0, 6)

	if res, err = results(replay, 1); err != nil {
		t.Fatal(err)
	}
	expect("one more", res, []int{1}, 1, 1)
	c.mu.Lock()
	c.budget = c.bytes.Load() + memoEntryBytes
	c.mu.Unlock()
	if _, err = results(replay, 3, 5); err != nil {
		t.Fatal(err)
	}
	if c.evictions.Load() != 1 || c.bytes.Load() != 0 || c.memoEntries.Load() != 0 || c.resident.Load() != 0 {
		t.Errorf("a memo two entries over the budget left %d evictions, %d bytes, %d memo entries and %d recordings; want 1, 0, 0 and 0",
			c.evictions.Load(), c.bytes.Load(), c.memoEntries.Load(), c.resident.Load())
	}
}

// TestResultsConcurrent: callers asking for overlapping
// configurations of one recording at once each get the right Results,
// and the memo ends up holding each configuration once. Run it under
// -race: the memo is shared by every caller of the recording.
func TestResultsConcurrent(t *testing.T) {
	ResetTraceCache()
	_, st, err := Record(context.Background(), "embar", "small", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var replayed []int
			cfgs := streamsConfigs(1+g%4, 1+(g+1)%4, 1+(g+2)%4)
			res, err := recordings.results(context.Background(), keyOf("embar", "small", 0.02), st, cfgs, standIn(&replayed))
			if err != nil {
				t.Error(err)
				return
			}
			for i, r := range res {
				if want := uint64(cfgs[i].Streams.Streams); r.Instructions != want {
					t.Errorf("caller %d: result %d is for %d streams, want %d", g, i, r.Instructions, want)
				}
			}
		}()
	}
	wg.Wait()
	if got := TraceCacheStats().MemoEntries; got != 4 {
		t.Errorf("memo holds %d results, want 4", got)
	}
}

// bareConfig is the paper's L1s with no streams: the cheapest system
// that records the paper's front.
func bareConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams.Streams, cfg.UnitFilterEntries, cfg.Stride = 0, 0, core.NoStrideDetection
	return cfg
}

// replayBare replays st through a fresh system of cfg with memo.
func replayBare(ctx context.Context, st *trace.Store, memo core.FrontMemo, cfg core.Config) error {
	sys, err := core.New(cfg)
	if err != nil {
		return err
	}
	return core.ReplayStoreFronts(ctx, []*core.System{sys}, st, memo, nil)
}

// TestFrontMemoRules: a replay of other L1s than the paper's stores no
// front; a cancelled replay stores no front; a completed one stores
// its front on the recording's entry, charged to the budget, and later
// lookups are front hits; a recording holds one front, so a second
// front offered is dropped; a memo whose recording was dropped and
// recorded again stores nothing into the new entry; and
// ResetTraceCache and eviction drop the front with its recording.
func TestFrontMemoRules(t *testing.T) {
	ctx := context.Background()
	ResetTraceCache()
	_, st, err := Record(ctx, "embar", "small", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	memo := Fronts("embar", workload.SizeSmall, 0.02, st)
	stats := TraceCacheStats()
	direct := bareConfig()
	direct.L1I.Assoc, direct.L1D.Assoc = 1, 1
	if err := replayBare(ctx, st, memo, direct); err != nil {
		t.Fatal(err)
	}
	if memo.Front() != nil || TraceCacheStats() != stats {
		t.Fatalf("a replay of direct-mapped L1s stored a front: stats %+v, were %+v", TraceCacheStats(), stats)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := replayBare(cctx, st, memo, bareConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay returned %v", err)
	}
	if memo.Front() != nil || TraceCacheStats() != stats {
		t.Fatalf("a cancelled replay stored a front: stats %+v, were %+v", TraceCacheStats(), stats)
	}

	if err := replayBare(ctx, st, memo, bareConfig()); err != nil {
		t.Fatal(err)
	}
	f := memo.Front()
	if f == nil {
		t.Fatal("a completed replay stored no front")
	}
	got := TraceCacheStats()
	if got.FrontBytes != f.Bytes() || got.Bytes != stats.Bytes+f.Bytes() || got.FrontHits != stats.FrontHits+1 {
		t.Errorf("after storing a %d-byte front: %+v, were %+v", f.Bytes(), got, stats)
	}
	if f.Bytes() > int64(st.Len()) {
		t.Errorf("embar's front takes %d bytes for %d references, over 1 B per reference", f.Bytes(), st.Len())
	}
	if err := replayBare(ctx, st, memo, bareConfig()); err != nil {
		t.Fatal(err)
	}
	if TraceCacheStats().FrontHits != got.FrontHits+1 || memo.Front() != f {
		t.Error("a replay from the stored front did not keep it, or was not a front hit")
	}
	// A second front of the same recording, recorded through another
	// cache, is dropped: the entry holds one front.
	other := newTraceCache(traceCacheBudget)
	if _, err := other.get(ctx, keyOf("embar", "small", 0.02), func() (*trace.Store, error) { return st, nil }); err != nil {
		t.Fatal(err)
	}
	if err := replayBare(ctx, st, frontMemo{other, keyOf("embar", "small", 0.02), st}, bareConfig()); err != nil {
		t.Fatal(err)
	}
	bytes := TraceCacheStats().Bytes
	memo.AddFront(other.entries[keyOf("embar", "small", 0.02)].Value.(*traceEntry).front)
	if memo.Front() != f || TraceCacheStats().Bytes != bytes {
		t.Error("a recording holding a front stored a second one")
	}

	ResetTraceCache()
	if got := TraceCacheStats(); got.FrontBytes != 0 || got.Bytes != 0 {
		t.Errorf("ResetTraceCache left %d front bytes of %d", got.FrontBytes, got.Bytes)
	}
	_, st2, err := Record(ctx, "embar", "small", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayBare(ctx, st, memo, bareConfig()); err != nil {
		t.Fatal(err)
	}
	if Fronts("embar", workload.SizeSmall, 0.02, st2).Front() != nil || TraceCacheStats().FrontBytes != 0 {
		t.Error("a replay of a dropped recording stored its front on the new recording")
	}

	// Eviction drops a recording's fronts with it.
	keyA, recA := recorder(t, 0.02)
	keyB, recB := recorder(t, 0.03)
	c := newTraceCache(traceCacheBudget)
	a, err := c.get(ctx, keyA, func() (*trace.Store, error) { return recA(ctx) })
	if err != nil {
		t.Fatal(err)
	}
	if err := replayBare(ctx, a, frontMemo{c, keyA, a}, bareConfig()); err != nil {
		t.Fatal(err)
	}
	if c.frontBytes.Load() == 0 {
		t.Fatal("no front stored in the local cache")
	}
	b, err := recB(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.budget = c.bytes.Load() + int64(b.Footprint()) - 1
	c.mu.Unlock()
	if _, err := c.get(ctx, keyB, func() (*trace.Store, error) { return b, nil }); err != nil {
		t.Fatal(err)
	}
	if c.evictions.Load() != 1 || c.frontBytes.Load() != 0 || c.bytes.Load() != int64(b.Footprint()) {
		t.Errorf("after evicting A: %d evictions, %d front bytes, %d bytes; want 1, 0 and B's %d",
			c.evictions.Load(), c.frontBytes.Load(), c.bytes.Load(), b.Footprint())
	}
	if (frontMemo{c, keyA, a}).Front() != nil {
		t.Error("an evicted recording's front is still served")
	}
}

// TestFrontMemoConcurrentRecorders: callers that replay one recording
// at once from fresh systems all record the same front, and the memo
// keeps one of them, charged once. Run it under -race.
func TestFrontMemoConcurrentRecorders(t *testing.T) {
	ctx := context.Background()
	ResetTraceCache()
	_, st, err := Record(ctx, "embar", "small", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	memo := Fronts("embar", workload.SizeSmall, 0.02, st)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := replayBare(ctx, st, memo, bareConfig()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	f := memo.Front()
	if f == nil {
		t.Fatal("no front stored")
	}
	if got := TraceCacheStats().FrontBytes; got != f.Bytes() {
		t.Errorf("the memo holds %d front bytes, want one front's %d", got, f.Bytes())
	}
}
