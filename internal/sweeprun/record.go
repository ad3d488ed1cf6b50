package sweeprun

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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

// traceEntry is one cached recording.
type traceEntry struct {
	key   traceKey
	store *trace.Store
	bytes int64 // store.Footprint()
}

// traceCache is a bounded cache of recordings. A caller that misses
// records under its own context, outside the lock, and then inserts;
// if another caller inserted the key meanwhile, it takes that store
// instead, so every caller of a key gets one store. A failed or
// cancelled recording inserts nothing, so no caller inherits another
// caller's cancellation. Entries are evicted least recently used
// first once their footprints exceed the budget. The LRU order lives
// in a list so that nothing ever ranges over the map.
type traceCache struct {
	mu      sync.Mutex
	budget  int64
	entries map[traceKey]*list.Element // Value is a *traceEntry
	lru     *list.List                 // most recently used at the front

	// Written under mu, read without it by TraceCacheStats.
	bytes     atomic.Int64
	resident  atomic.Int64
	hits      atomic.Uint64
	evictions atomic.Uint64
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

// insert caches st under key and evicts down to the budget; c.mu must
// be held.
func (c *traceCache) insert(key traceKey, st *trace.Store) {
	e := &traceEntry{key: key, store: st, bytes: int64(st.Footprint())}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes.Add(e.bytes)
	c.resident.Add(1)
	for c.bytes.Load() > c.budget {
		c.remove(c.lru.Back())
		c.evictions.Add(1)
	}
}

// remove drops the entry at el; c.mu must be held. Replays still
// holding its store keep it alive until they finish.
func (c *traceCache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*traceEntry)
	delete(c.entries, e.key)
	c.bytes.Add(-e.bytes)
	c.resident.Add(-1)
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
	// Bytes is the resident footprint of the cached recordings.
	Bytes int64
	// Entries is the number of cached recordings.
	Entries int64
	// Evictions counts recordings dropped to stay within the budget.
	Evictions uint64
}

// TraceCacheStats reads the recording cache's counters without
// locking; each field is individually current.
func TraceCacheStats() CacheStats {
	c := recordings
	return CacheStats{
		Hits:      c.hits.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.resident.Load(),
		Evictions: c.evictions.Load(),
	}
}

// ResetTraceCache drops every cached recording, for benchmarks that
// measure recording cost. Hit and eviction counts keep accumulating.
func ResetTraceCache() { recordings.reset() }
