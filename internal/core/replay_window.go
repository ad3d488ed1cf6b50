// Window-sharded intra-trace replay: one configuration (or one
// fan-out group) simulated by several workers, each owning a
// contiguous run of the trace's sample windows.
//
// The trace package's window seek index makes the decode side trivial
// — any worker can start decoding at any window boundary in O(1). The
// simulator side is where the approximation lives: a chunk that does
// not start at the beginning of the trace forks the caller's entry
// state (System.Fork, statistics zeroed), replays a few warmup windows
// to heat the forked caches and stream buffers, resets its counters,
// and only then counts its own windows. Outcome counters are additive
// over a partition of the reference stream, so the per-chunk deltas
// merge back exactly (System.Merge); the only divergence from a
// sequential replay is the residual cache state at each chunk's first
// counted window, bounded by the warmup.
//
// The chunk plan is a function of the trace alone (window count and
// the requested shard count) — never of GOMAXPROCS — so results are
// machine-independent: worker width changes wall-clock time only.
package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"streamsim/internal/trace"
)

// ShardOptions tunes the window-sharded engine. The zero value derives
// the chunk plan from the trace.
type ShardOptions struct {
	// Shards forces the chunk count: 0 derives it from the trace's
	// window count, 1 disables sharding (exact sequential replay).
	// The chunk plan never depends on the host's core count.
	Shards int
}

// DefaultWarmupWindows is the per-chunk warmup: enough references
// (4 x trace.WindowRefs) to refill the paper's 64 KB L1s and stream
// buffers from a forked entry state before any window is counted.
const DefaultWarmupWindows = 4

// Auto chunk-plan shape: chunks carry at least minChunkWindows counted
// windows each (keeping the warmup overhead near
// DefaultWarmupWindows/minChunkWindows) and the plan tops out at
// maxAutoChunks, far above any host's core count, so the split
// saturates wide machines without fragmenting the trace.
const (
	minChunkWindows = 32
	maxAutoChunks   = 32
)

// lastWindowShards records the chunk count of the most recent windowed
// replay, for the service /metrics gauge (1 when the engine fell back
// to an exact sequential pass).
var lastWindowShards atomic.Int64

// LastWindowShards reports the window-shard width of the most recent
// windowed replay.
func LastWindowShards() int { return int(lastWindowShards.Load()) }

// planShards returns the chunk count for a trace of K windows. The
// plan depends only on the trace and the requested count, never on the
// host, so a sharded replay computes the same statistics everywhere.
func planShards(K, requested int) int {
	t := requested
	if t == 0 {
		t = K / minChunkWindows
		if t > maxAutoChunks {
			t = maxAutoChunks
		}
	}
	if t > K {
		t = K
	}
	if t < 1 {
		t = 1
	}
	return t
}

// hooked reports whether any system carries an observation hook.
// Hooks are closures shared with the caller; a forked system would
// invoke them from worker goroutines, so the engine refuses to shard
// and replays exactly instead.
func hooked(systems []*System) bool {
	for _, sys := range systems {
		if sys.cfg.OnMemoryTraffic != nil || sys.cfg.Streams.OnPrefetch != nil {
			return true
		}
	}
	return false
}

// ReplayStoreWindowed replays a recorded trace through one system with
// window sharding; see ReplayStoreMultiWindowed.
func ReplayStoreWindowed(ctx context.Context, sys *System, st *trace.Store, opt ShardOptions) error {
	one := [1]*System{sys}
	return ReplayStoreMultiWindowed(ctx, one[:], st, opt)
}

// ReplayStoreMultiWindowed replays one recorded trace through every
// system, sharding the trace itself across workers by sample windows
// (each worker still drives all the systems, decoding every batch
// once, with one front simulation per front class; see frontPlan for
// the precondition systems sharing a front key must meet). Chunk
// statistics merge deterministically: counters are additive over the
// window partition, the merge order cannot change a sum, and the chunk
// plan depends only on the trace — so a completed replay yields
// identical statistics at any worker count, including one; chunks run
// on GOMAXPROCS workers. Relative to an exact sequential replay the
// statistics differ only by each chunk's residual state error, bounded
// by the warmup windows; small traces, Shards: 1 and hook-carrying
// systems all take an exact sequential path instead. On cancellation
// the systems are left mid-merge and only the error is meaningful.
//
//simlint:deterministic
func ReplayStoreMultiWindowed(ctx context.Context, systems []*System, st *trace.Store, opt ShardOptions) error {
	if len(systems) == 0 {
		return nil
	}
	lastFanOut.Store(int64(len(systems)))
	shards := planShards(st.WindowCount(), opt.Shards)
	if shards < 2 || hooked(systems) {
		lastWindowShards.Store(1)
		return ReplayStoreMultiPrefixFrom(ctx, systems, st, 0, st.WindowCount())
	}
	lastWindowShards.Store(int64(shards))
	return replayWindowedChunks(ctx, systems, st, shards)
}

// replayWindowedChunks fans the chunk plan out over a pool of up to
// GOMAXPROCS workers. Every chunk forks the callers' pristine entry
// state (the protos, forked once up front so chunk 0 and chunk N see
// the same starting point), warms the forks on up to
// DefaultWarmupWindows preceding windows, simulates its own windows,
// and merges its counter deltas into the callers' systems under the
// merge lock as soon as it completes — freeing the fork's memory
// early. The final chunk's forks are kept aside: they hold the
// trace-end architectural state, which the callers adopt after the
// last merge so a later Results() describes a system that "finished"
// the trace.
func replayWindowedChunks(ctx context.Context, systems []*System, st *trace.Store, shards int) error {
	K := st.WindowCount()
	protos := make([]*System, len(systems))
	for i, sys := range systems {
		protos[i] = sys.Fork()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := min(runtime.GOMAXPROCS(0), shards)
	var (
		mu     sync.Mutex
		finals []*System
		errs   = make([]error, shards)
		wg     sync.WaitGroup
	)
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, trace.ReplayBatchLen)
			for c := range idx {
				start, end := c*K/shards, (c+1)*K/shards
				wstart := max(start-DefaultWarmupWindows, 0)
				final := c == shards-1
				css, err := runChunk(runCtx, protos, st, wstart, start, end, final, buf)
				if err != nil {
					errs[c] = err
					cancel()
					continue
				}
				mu.Lock()
				for i, cs := range css {
					systems[i].Merge(cs)
				}
				if final {
					finals = css
				}
				mu.Unlock()
			}
		}()
	}
	for c := 0; c < shards; c++ {
		if runCtx.Err() != nil {
			break
		}
		idx <- c
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if finals != nil {
		for i, sys := range systems {
			sys.adoptState(finals[i])
		}
	}
	return nil
}

// runChunk forks the prototype systems and replays windows
// [wstart, end), resetting the forks' statistics when the warmup
// prefix [wstart, start) ends so only [start, end) is counted. final
// marks the chunk whose forks the callers adopt (adoptState): only
// there do followers need their leader's front state, not just its
// counters.
func runChunk(ctx context.Context, protos []*System, st *trace.Store, wstart, start, end int, final bool, buf []uint64) ([]*System, error) {
	css := make([]*System, len(protos))
	for i, p := range protos {
		css[i] = p.Fork()
	}
	p := planFronts(css)
	defer p.settle(final)
	if err := p.replayWindows(ctx, st, wstart, start, buf); err != nil {
		return nil, err
	}
	for _, cs := range css {
		cs.ResetStats()
	}
	if err := p.replayWindows(ctx, st, start, end, buf); err != nil {
		return nil, err
	}
	return css, nil
}
