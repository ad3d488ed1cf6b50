// Cancellable replay of recorded traces through a System. This is the
// layer the simd job service cancels at: the per-reference hot path
// (Access/AccessBatch) stays free of any context machinery, and the
// batch loop here polls the context once per ReplayBatchLen references,
// so an in-flight run stops within one batch boundary.
//
// The multi-config engines (full, window-sharded and prefix replay)
// decode each trace batch exactly once and fan the shared decoded slice
// out to N systems — the paper's whole evaluation is "one recorded
// reference stream, many memory-system configurations", so per-config
// decode is pure waste. They all run on one front plan and one range
// loop, below: systems that share an L1 front end simulate it once.
package core

import (
	"context"
	"sync/atomic"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// ReplayStore replays every access of a recorded trace through the
// system on the batched hot path, polling ctx between batches. It
// returns ctx.Err() if the replay was cancelled, in which case the
// system has consumed a prefix of the trace; statistics of a completed
// replay are byte-identical to calling Access in a loop.
//
// The decode is NextPacked: a System reads neither Access.PC nor
// Access.Size, so each reference travels as a single packed word from
// the varint stream to the cache probe — no mem.Access slice is
// materialized at all.
func ReplayStore(ctx context.Context, sys *System, st *trace.Store) error {
	done := ctx.Done()
	buf := make([]uint64, trace.ReplayBatchLen)
	it := st.Iter()
	for n := it.NextPacked(buf); n > 0; n = it.NextPacked(buf) {
		sys.AccessPacked(buf[:n])
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// lastFanOut records the width of the most recent multi-config
// fan-out, for the service /metrics gauge.
var lastFanOut atomic.Int64

// LastFanOutWidth reports how many systems the most recent
// ReplayStoreMultiWindowed call drove from one decode.
func LastFanOutWidth() int { return int(lastFanOut.Load()) }

// frontKey is everything an L1 front end's evolution depends on besides
// the reference stream: the geometry, both L1 configurations (seeds
// included) and the victim buffer size. Every L1 miss fills the cache
// whether a stream or memory supplies the block, and the victim buffer
// is filled only by L1 evictions and probed only on L1 misses, so
// systems with equal keys make identical front decisions however their
// stream sides differ.
type frontKey struct {
	geom     mem.Geometry
	l1i, l1d cache.Config
	victim   int
}

// frontClass is the systems of one fan-out that share a front key. The
// leader simulates the front and taps the backend events it generates
// (System.tap); the followers replay only those events (applyTap).
type frontClass struct {
	leader    *System
	followers []*System
}

// frontPlan partitions one replay call's systems into front classes.
// It is built once per call (planFronts) and closed on every exit
// (settle).
//
// Precondition: systems with the same front key enter the call with
// identical front state — L1 and victim contents, replacement RNGs and
// their counters. Fresh systems, forks of one entry state and systems
// restored from checkpoints taken at the same window all meet it.
type frontPlan []frontClass

// planFronts groups systems by front key in order of first appearance;
// each class's first member leads. A leader with followers gets a tap
// buffer sized for the worst batch (a write-back and a fill per
// reference), so the tap never grows mid-replay.
func planFronts(systems []*System) frontPlan {
	p := make(frontPlan, 0, len(systems))
	keys := make([]frontKey, 0, len(systems))
next:
	for _, sys := range systems {
		k := frontKey{sys.geom, sys.cfg.L1I, sys.cfg.L1D, sys.cfg.VictimEntries}
		for i := range keys {
			if keys[i] == k {
				p[i].followers = append(p[i].followers, sys)
				continue next
			}
		}
		keys = append(keys, k)
		p = append(p, frontClass{leader: sys})
	}
	for _, c := range p {
		if len(c.followers) > 0 {
			c.leader.tap = make([]uint64, 0, 2*trace.ReplayBatchLen)
		}
	}
	return p
}

// step presents one decoded batch to every class: the leader simulates
// it, then each follower replays the leader's tapped events. A leader
// without followers has a nil tap and records nothing.
//
//simlint:hotpath
//simlint:borrowed words
func (p frontPlan) step(words []uint64) {
	for i := range p {
		c := &p[i]
		lead := c.leader
		lead.tap = lead.tap[:0]
		lead.AccessPacked(words)
		for _, f := range c.followers {
			f.applyTap(lead.tap)
		}
	}
}

// replay decodes refs references from it, steps the plan over each
// batch and polls ctx between batches. On cancellation every system
// has consumed the same prefix and ctx.Err() is returned.
//
//simlint:hotpath
//simlint:borrowed buf
func (p frontPlan) replay(ctx context.Context, it *trace.StoreIter, refs int, buf []uint64) error {
	done := ctx.Done()
	for refs > 0 {
		b := buf
		if refs < len(b) {
			b = b[:refs]
		}
		n := it.NextPacked(b)
		if n == 0 {
			return nil
		}
		p.step(b[:n])
		refs -= n
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// replayWindows replays sample windows [from, to) of st through the
// plan, seeking the decoder to from's boundary in O(1) from the store's
// append-time window index.
func (p frontPlan) replayWindows(ctx context.Context, st *trace.Store, from, to int, buf []uint64) error {
	refs := st.PrefixLen(to) - st.PrefixLen(from)
	if refs <= 0 {
		return nil
	}
	it := st.IterAtWindow(from)
	return p.replay(ctx, &it, refs, buf)
}

// settle closes a replay call on every exit: the taps are disarmed and
// each follower adopts its leader's front (System.adoptFront) — the
// whole front state when keep is set, because the follower outlives
// the call, or only its counters for chunk forks that are merged and
// dropped.
func (p frontPlan) settle(keep bool) {
	for _, c := range p {
		c.leader.tap = nil
		for _, f := range c.followers {
			f.adoptFront(c.leader, keep)
		}
	}
}
