package sweeprun

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"streamsim/internal/core"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// Record builds the named workload and returns its recording at the
// given scale: a compact trace store keeping the full event order
// (accesses and positioned instruction counts), so a CPI replay
// charges cycles in exactly the sequence a live run would.
//
// Record is the process's one recording path. Sweeps, the
// internal/search optimizer and the experiments all replay one
// recording through many configurations, and a recording is a
// deterministic function of (workload, size, scale), so Record
// memoizes it in a process-wide cache: every caller of one key gets
// the same store. Callers must treat the store as read-only.
func Record(ctx context.Context, name, sizeS string, scale float64) (*workload.Workload, *trace.Store, error) {
	w, err := BuildWorkload(name, sizeS)
	if err != nil {
		return nil, nil, err
	}
	// Checked before the key reaches the cache: a NaN key would never
	// hit and could not be deleted from the cache's map.
	if !(scale > 0 && scale <= 1) {
		return nil, nil, fmt.Errorf("sweeprun: scale %v outside (0, 1]", scale)
	}
	key := keyOf(name, sizeS, scale)
	st, err := recordings.get(ctx, key, func() (*trace.Store, error) {
		return recordTrace(ctx, w, key.size, scale)
	})
	if err != nil {
		return nil, nil, err
	}
	return w, st, nil
}

// keyOf returns the cache key of Record(name, sizeS, scale).
func keyOf(name, sizeS string, scale float64) traceKey {
	sz := workload.SizeSmall
	if sizeS == "large" {
		sz = workload.SizeLarge
	}
	return traceKey{name, sz, scale}
}

// Results returns the Results of replaying the recording of (name,
// size, scale), the store Record returns, through a fresh system of
// each configuration, in order, each with the trace's instructions
// added. It is the module's one whole-trace replay of fresh systems:
// every experiment row and sweep point comes from it. Every recording
// carries a results memo: the Results of each configuration replayed
// over it to completion, keyed by the configuration itself. Results
// answers from the memo what it holds and replays the configurations
// it lacks together, outside the cache's lock, in one pass
// (core.ReplayStoreFronts) through the recording's front memo
// (Fronts), so those with the paper's L1s run from the stored front
// once a replay has recorded it. They join the memo only when the
// replay completes, so a cancelled replay memoizes nothing. The memo
// lives on the recording's cache entry and is charged to the cache's
// budget, so eviction and ResetTraceCache drop it with the store.
//
// A memoized Results stands for every later replay of its
// configuration. A replay that observes the simulation
// (core.System.OnTraffic), stops at a prefix or charges a timing model
// does not come here.
func Results(ctx context.Context, name string, size workload.Size, scale float64, cfgs []core.Config) ([]core.Results, error) {
	_, st, err := Record(ctx, name, size.String(), scale)
	if err != nil {
		return nil, err
	}
	return recordings.results(ctx, traceKey{name, size, scale}, st, cfgs, replayFresh)
}

// results is Results over st, the store cached under key, with replay
// as the whole-trace replay of the configurations the memo lacks.
func (c *traceCache) results(ctx context.Context, key traceKey, st *trace.Store, cfgs []core.Config,
	replay func(ctx context.Context, st *trace.Store, fronts core.FrontMemo, cfgs []core.Config) ([]core.Results, error)) ([]core.Results, error) {
	res := make([]core.Results, len(cfgs))
	missing := c.memoized(key, st, cfgs, res)
	if len(missing) == 0 {
		return res, nil
	}
	todo := make([]core.Config, len(missing))
	for j, i := range missing {
		todo[j] = cfgs[i]
	}
	got, err := replay(ctx, st, frontMemo{c, key, st}, todo)
	if err != nil {
		return nil, err
	}
	for j, i := range missing {
		res[i] = got[j]
	}
	c.memoize(key, st, todo, got)
	return res, nil
}

// replayFresh replays the whole of st through a fresh system of each
// configuration in one pass with the recording's front memo, and
// returns their Results with the trace's instructions added.
func replayFresh(ctx context.Context, st *trace.Store, fronts core.FrontMemo, cfgs []core.Config) ([]core.Results, error) {
	systems := make([]*core.System, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if systems[i], err = core.New(cfg); err != nil {
			return nil, err
		}
	}
	if err := core.ReplayStoreFronts(ctx, systems, st, fronts, nil); err != nil {
		return nil, err
	}
	replayedRefs.Add(uint64(st.Len()) * uint64(len(systems)))
	res := make([]core.Results, len(systems))
	for i, sys := range systems {
		sys.AddInstructions(st.Instructions())
		res[i] = sys.Results()
	}
	return res, nil
}

// replayedRefs counts the references of completed replays of Results
// and Run, per system or model; a configuration answered from a results
// memo adds nothing. Adding once per completed pass keeps the replay
// loop free of per-batch atomics.
var replayedRefs atomic.Uint64

// ReplayedRefs returns the references replayed, per system or model,
// through completed passes of Results and Run since process start.
func ReplayedRefs() uint64 { return replayedRefs.Load() }

// Fronts returns the front memo of the recording of (name, size,
// scale) that st is, the store Record returns: the paper's L1 front of
// st once a completed whole-trace replay has recorded it (core.Front).
// core.ReplayStoreFronts serves a class of fresh systems with the
// paper's L1s from it, or has one record it. The front lives on the
// recording's cache entry beside its results memo and counts against
// the cache's budget, so eviction and ResetTraceCache drop it with the
// store; a memo whose recording was dropped, or dropped and recorded
// again, serves and stores nothing.
//
// Only replays from fresh systems over the whole recording use it:
// Results, and the experiments' timed and observed replays. The
// optimizer replays live.
func Fronts(name string, size workload.Size, scale float64, st *trace.Store) core.FrontMemo {
	return frontMemo{recordings, traceKey{name, size, scale}, st}
}

// frontMemo is the core.FrontMemo of one cached recording.
type frontMemo struct {
	c   *traceCache
	key traceKey
	st  *trace.Store
}

// Front returns the stored front, counting a front hit, or nil.
func (m frontMemo) Front() *core.Front {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	if e := m.c.entry(m.key, m.st); e != nil && e.front != nil {
		m.c.frontHits.Add(1)
		return e.front
	}
	return nil
}

// AddFront stores f on the recording's entry, charging its bytes to the
// budget, unless the entry is gone or already holds a front.
func (m frontMemo) AddFront(f *core.Front) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	e := m.c.entry(m.key, m.st)
	if e == nil || e.front != nil {
		return
	}
	e.front = f
	n := f.Bytes()
	e.bytes += n
	m.c.bytes.Add(n)
	m.c.frontBytes.Add(n)
	m.c.evict()
}

// recordTrace runs w once into a store preallocated from the
// workload's reference estimate. The estimate scales by the kernel's
// own step count and lands within 2% above the recorded length
// (TestEstimateRefsMatchesRecording), so recording does not regrow.
func recordTrace(ctx context.Context, w *workload.Workload, sz workload.Size, scale float64) (*trace.Store, error) {
	st := trace.NewStore(int(workload.EstimateRefs(w.Name, sz, scale)))
	if err := w.RunContext(ctx, st, scale); err != nil {
		return nil, err
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// traceCacheBudget caps the resident footprint (trace.Store.Footprint)
// of cached recordings. 1 GiB holds all twenty named inputs at scale 1
// (757 MiB measured, 696 MiB of it preallocated), so a paper pass at
// one scale keeps them all, while the recordings a daemon fed many
// distinct scales keeps stay bounded.
const traceCacheBudget = 1 << 30

// recordings is the process-wide recording cache behind Record.
var recordings = newTraceCache(traceCacheBudget)

// traceKey identifies a recording.
type traceKey struct {
	name  string
	size  workload.Size
	scale float64
}

// memoEntryBytes is what one results-memo entry charges to the budget:
// its key and its value.
const memoEntryBytes = int64(unsafe.Sizeof(core.Config{}) + unsafe.Sizeof(core.Results{}))

// traceEntry is one cached recording with its results memo and its
// stored front.
type traceEntry struct {
	key     traceKey
	store   *trace.Store
	bytes   int64                        // store.Footprint(), memoEntryBytes per memo entry and the front's Bytes
	results map[core.Config]core.Results // completed replays of store; see Results
	front   *core.Front                  // the paper's L1 front of store, or nil; see Fronts
}

// traceCache is a bounded cache of recordings. A caller that misses
// records under its own context, outside the lock, and then inserts;
// if another caller inserted the key meanwhile, it takes that store
// instead, so every caller of a key gets one store. A failed or
// cancelled recording inserts nothing, so no caller inherits another
// caller's cancellation. Entries are evicted least recently used
// first once their footprints, results memos and fronts exceed the
// budget. The LRU order lives in a list so that nothing ever ranges
// over the map. Each entry's results memo and stored front follow the
// same rules (see Results and Fronts).
type traceCache struct {
	mu      sync.Mutex
	budget  int64
	entries map[traceKey]*list.Element // Value is a *traceEntry
	lru     *list.List                 // most recently used at the front

	// Written under mu, read without it by TraceCacheStats.
	bytes       atomic.Int64
	resident    atomic.Int64
	hits        atomic.Uint64
	evictions   atomic.Uint64
	memoHits    atomic.Uint64
	memoEntries atomic.Int64
	frontHits   atomic.Uint64
	frontBytes  atomic.Int64
}

func newTraceCache(budget int64) *traceCache {
	return &traceCache{budget: budget, entries: map[traceKey]*list.Element{}, lru: list.New()}
}

// get returns the recording cached under key, or calls record (which
// runs under the caller's ctx) and caches its result. A lookup on an
// ended ctx returns ctx.Err(), hit or not.
func (c *traceCache) get(ctx context.Context, key traceKey, record func() (*trace.Store, error)) (*trace.Store, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	st := c.cached(key)
	c.mu.Unlock()
	if st != nil {
		return st, nil
	}
	st, err := record()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.cached(key); prev != nil {
		return prev, nil // another caller recorded key meanwhile
	}
	c.insert(key, st)
	return st, nil
}

// cached returns the store cached under key, counting a hit, or nil;
// c.mu must be held.
func (c *traceCache) cached(key traceKey) *trace.Store {
	el := c.entries[key]
	if el == nil {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*traceEntry).store
}

// entry returns the entry caching st under key, or nil when key is not
// cached or caches another store (st was evicted and recorded again);
// c.mu must be held.
func (c *traceCache) entry(key traceKey, st *trace.Store) *traceEntry {
	if el := c.entries[key]; el != nil {
		if e := el.Value.(*traceEntry); e.store == st {
			return e
		}
	}
	return nil
}

// memoized copies into res[i] the memoized Results of each cfgs[i]
// that st's results memo holds, counting a memo hit for each, and
// returns the indices of the others in order.
func (c *traceCache) memoized(key traceKey, st *trace.Store, cfgs []core.Config, res []core.Results) (missing []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var memo map[core.Config]core.Results
	if e := c.entry(key, st); e != nil {
		memo = e.results
	}
	for i, cfg := range cfgs {
		r, ok := memo[cfg]
		if !ok {
			missing = append(missing, i)
			continue
		}
		res[i] = r
		c.memoHits.Add(1)
	}
	return missing
}

// memoize adds res[i] as the Results of cfgs[i] to st's results memo,
// if st is still cached under key, charging each new entry to the
// budget.
func (c *traceCache) memoize(key traceKey, st *trace.Store, cfgs []core.Config, res []core.Results) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entry(key, st)
	if e == nil {
		return
	}
	for i, cfg := range cfgs {
		if _, ok := e.results[cfg]; !ok {
			c.memoEntries.Add(1)
			e.bytes += memoEntryBytes
			c.bytes.Add(memoEntryBytes)
		}
		e.results[cfg] = res[i]
	}
	c.evict()
}

// insert caches st under key and evicts down to the budget; c.mu must
// be held.
func (c *traceCache) insert(key traceKey, st *trace.Store) {
	e := &traceEntry{key: key, store: st, bytes: int64(st.Footprint()), results: map[core.Config]core.Results{}}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes.Add(e.bytes)
	c.resident.Add(1)
	c.evict()
}

// evict drops least recently used entries until the cache is within
// its budget; c.mu must be held.
func (c *traceCache) evict() {
	for c.bytes.Load() > c.budget {
		c.remove(c.lru.Back())
		c.evictions.Add(1)
	}
}

// remove drops the entry at el with its results memo and front; c.mu
// must be held. Replays still holding its store or front keep them
// alive until they finish, and store nothing into it.
func (c *traceCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*traceEntry)
	delete(c.entries, e.key)
	c.bytes.Add(-e.bytes)
	c.resident.Add(-1)
	c.memoEntries.Add(-int64(len(e.results)))
	if e.front != nil {
		c.frontBytes.Add(-e.front.Bytes())
	}
}

// reset drops every entry. Recordings in progress are inserted when
// they finish.
func (c *traceCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = c.lru.Front() {
		c.remove(el)
	}
}

// CacheStats is a snapshot of the recording cache's counters.
type CacheStats struct {
	// Hits counts Record calls answered with a cached store,
	// including callers whose own recording finished after another
	// caller had cached the same key.
	Hits uint64
	// Bytes is the resident footprint of the cached recordings, their
	// results memos (MemoEntries entries of a configuration and its
	// Results each) and their stored fronts.
	Bytes int64
	// Entries is the number of cached recordings.
	Entries int64
	// Evictions counts recordings dropped to stay within the budget.
	Evictions uint64
	// MemoHits counts configurations Results answered from a
	// recording's results memo instead of replaying them.
	MemoHits uint64
	// MemoEntries is the number of Results the cached recordings'
	// memos hold.
	MemoEntries int64
	// FrontHits counts front lookups a stored front answered: front
	// classes of whole-trace replays served without a decode or an L1
	// probe, and Table 4's walks of a front's traffic (see Fronts).
	FrontHits uint64
	// FrontBytes is the stored fronts' share of Bytes.
	FrontBytes int64
}

// TraceCacheStats reads the recording cache's counters without
// locking; each field is individually current.
func TraceCacheStats() CacheStats {
	c := recordings
	return CacheStats{
		Hits:        c.hits.Load(),
		Bytes:       c.bytes.Load(),
		Entries:     c.resident.Load(),
		Evictions:   c.evictions.Load(),
		MemoHits:    c.memoHits.Load(),
		MemoEntries: c.memoEntries.Load(),
		FrontHits:   c.frontHits.Load(),
		FrontBytes:  c.frontBytes.Load(),
	}
}

// ResetTraceCache drops every cached recording with its results memo
// and stored front, for benchmarks that measure recording cost. Hit
// and eviction counts keep accumulating.
func ResetTraceCache() { recordings.reset() }
