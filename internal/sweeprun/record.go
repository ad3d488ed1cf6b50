package sweeprun

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
	sz := workload.SizeSmall
	if sizeS == "large" {
		sz = workload.SizeLarge
	}
	st, err := recordings.get(ctx, traceKey{name, sz, scale}, func() (*trace.Store, error) {
		return recordTrace(ctx, w, sz, scale)
	})
	if err != nil {
		return nil, nil, err
	}
	return w, st, nil
}

// Results returns the Results of replaying the recording of (name,
// size, scale), the store Record returns, through each configuration,
// in order. Every recording carries a results memo: the Results of
// each configuration replayed over it to completion, keyed by the
// configuration itself. Results answers from the memo what it holds
// and calls replay once, outside the cache's lock, with the recording
// and the configurations it lacks, in order; replay returns their
// Results in that order. They join the memo only when replay returns
// without error, so a cancelled replay memoizes nothing. The memo
// lives on the recording's cache entry, so eviction and
// ResetTraceCache drop it with the store.
//
// A memoized Results stands for every later replay of its
// configuration, so replay must return what a solo replay of the whole
// recording returns. A replay that observes the simulation
// (core.System.OnTraffic), stops at a prefix or charges a timing model
// does not come here.
func Results(ctx context.Context, name string, size workload.Size, scale float64, cfgs []core.Config,
	replay func(st *trace.Store, cfgs []core.Config) ([]core.Results, error)) ([]core.Results, error) {
	_, st, err := Record(ctx, name, size.String(), scale)
	if err != nil {
		return nil, err
	}
	key := traceKey{name, size, scale}
	res := make([]core.Results, len(cfgs))
	missing := recordings.memoized(key, st, cfgs, res)
	if len(missing) == 0 {
		return res, nil
	}
	todo := make([]core.Config, len(missing))
	for j, i := range missing {
		todo[j] = cfgs[i]
	}
	got, err := replay(st, todo)
	if err != nil {
		return nil, err
	}
	for j, i := range missing {
		res[i] = got[j]
	}
	recordings.memoize(key, st, todo, got)
	return res, nil
}

// Fronts returns the front memo of the recording of (name, size,
// scale) that st is, the store Record returns: the stored L1 fronts of
// completed whole-trace replays of st (core.Front), at most one per
// front key. core.ReplayStoreFronts serves a class of fresh systems
// from it and stores the front a live class records. The fronts live
// on the recording's cache entry beside its results memo and count
// against the cache's budget, so eviction and ResetTraceCache drop them
// with the store; a memo whose recording was dropped, or dropped and
// recorded again, serves and stores nothing.
//
// Only replays from fresh systems over the whole recording use it: the
// experiments' fan-outs. Sweeps and the optimizer replay live.
func Fronts(name string, size workload.Size, scale float64, st *trace.Store) core.FrontMemo {
	return frontMemo{recordings, traceKey{name, size, scale}, st}
}

// frontMemo is the core.FrontMemo of one cached recording.
type frontMemo struct {
	c   *traceCache
	key traceKey
	st  *trace.Store
}

// Front returns the stored front serving cfg, counting a front hit, or
// nil.
func (m frontMemo) Front(cfg core.Config) *core.Front {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	if e := m.c.entry(m.key, m.st); e != nil {
		for _, f := range e.fronts {
			if f.Serves(cfg) {
				m.c.frontHits.Add(1)
				return f
			}
		}
	}
	return nil
}

// AddFront stores f on the recording's entry, charging its bytes to the
// budget, unless the entry is gone or already holds a front of f's key.
func (m frontMemo) AddFront(f *core.Front) {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	e := m.c.entry(m.key, m.st)
	if e == nil {
		return
	}
	for _, g := range e.fronts {
		if g.SameFront(f) {
			return
		}
	}
	e.fronts = append(e.fronts, f)
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

// traceEntry is one cached recording with its results memo and its
// stored fronts.
type traceEntry struct {
	key     traceKey
	store   *trace.Store
	bytes   int64                        // store.Footprint() plus the fronts' Bytes
	results map[core.Config]core.Results // completed replays of store; see Results
	fronts  []*core.Front                // see Fronts
}

// traceCache is a bounded cache of recordings. A caller that misses
// records under its own context, outside the lock, and then inserts;
// if another caller inserted the key meanwhile, it takes that store
// instead, so every caller of a key gets one store. A failed or
// cancelled recording inserts nothing, so no caller inherits another
// caller's cancellation. Entries are evicted least recently used
// first once their footprints exceed the budget. The LRU order lives
// in a list so that nothing ever ranges over the map. Each entry's
// results memo and stored fronts follow the same rules (see Results
// and Fronts).
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

// memo returns the results memo of st, or nil (see entry); c.mu must be
// held.
func (c *traceCache) memo(key traceKey, st *trace.Store) map[core.Config]core.Results {
	if e := c.entry(key, st); e != nil {
		return e.results
	}
	return nil
}

// memoized copies into res[i] the memoized Results of each cfgs[i]
// that st's results memo holds, counting a memo hit for each, and
// returns the indices of the others in order.
func (c *traceCache) memoized(key traceKey, st *trace.Store, cfgs []core.Config, res []core.Results) (missing []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	memo := c.memo(key, st)
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
// if st is still cached under key.
func (c *traceCache) memoize(key traceKey, st *trace.Store, cfgs []core.Config, res []core.Results) {
	c.mu.Lock()
	defer c.mu.Unlock()
	memo := c.memo(key, st)
	if memo == nil {
		return
	}
	for i, cfg := range cfgs {
		if _, ok := memo[cfg]; !ok {
			c.memoEntries.Add(1)
		}
		memo[cfg] = res[i]
	}
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

// remove drops the entry at el with its results memo and fronts; c.mu
// must be held. Replays still holding its store or fronts keep them
// alive until they finish, and store nothing into it.
func (c *traceCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*traceEntry)
	delete(c.entries, e.key)
	c.bytes.Add(-e.bytes)
	c.resident.Add(-1)
	c.memoEntries.Add(-int64(len(e.results)))
	for _, f := range e.fronts {
		c.frontBytes.Add(-f.Bytes())
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
	// Bytes is the resident footprint of the cached recordings and
	// their stored fronts.
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
	// classes of experiment replays served without a decode or an L1
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
// and stored fronts, for benchmarks that measure recording cost. Hit and eviction counts
// keep accumulating.
func ResetTraceCache() { recordings.reset() }
