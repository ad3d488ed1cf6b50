// Cancellable replay of recorded traces through a System. This is the
// layer the simd job service cancels at: the per-reference hot path
// (Access/AccessBatch) stays free of any context machinery, and the
// batch loop here polls the context once per ReplayBatchLen references,
// so an in-flight run stops within one batch boundary.
//
// The multi-config replay (ReplayStoreMultiPrefixFrom) decodes each
// trace batch exactly once and fans the shared decoded slice out to N
// systems — the paper's whole evaluation is "one recorded reference
// stream, many memory-system configurations", so per-config decode is
// pure waste. It runs on the front plan and range loop below: systems
// that share an L1 front end simulate it once.
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
// ReplayStoreMultiPrefixFrom call drove from one decode.
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
// their counters. Fresh systems and systems restored from checkpoints
// taken at the same window both meet it.
type frontPlan []frontClass

// planFronts groups systems by front key in order of first appearance;
// each class's first member leads. A leader with followers gets a tap
// buffer sized for the worst batch (a write-back and a fill per
// reference), so the tap never grows mid-replay. logged arms every
// system's miss log the same way, with room for one entry per
// reference of a batch and a clear outcome to log into.
func planFronts(systems []*System, logged bool) frontPlan {
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
	if logged {
		for _, sys := range systems {
			sys.log = make([]Miss, 0, trace.ReplayBatchLen)
			sys.out = Outcome{}
		}
	}
	return p
}

// step presents one decoded batch to every class: the leader simulates
// it, then each follower replays the leader's tapped events — one
// logged reference at a time when the miss logs are armed. A leader
// without followers has a nil tap and records nothing.
//
//simlint:hotpath
//simlint:borrowed words
func (p frontPlan) step(words []uint64) {
	for i := range p {
		c := &p[i]
		lead := c.leader
		lead.tap = lead.tap[:0]
		lead.log = lead.log[:0]
		lead.AccessPacked(words)
		for _, f := range c.followers {
			if lead.log != nil {
				f.applyLog(lead.tap, lead.log)
			} else {
				f.applyTap(lead.tap)
			}
		}
	}
}

// replay decodes refs references from it, steps the plan over each
// batch, hands the batch to visit when it is non-nil, and polls ctx
// between batches. On cancellation every system has consumed the same
// prefix, visit has seen every batch they consumed, and ctx.Err() is
// returned.
//
//simlint:hotpath
//simlint:borrowed buf
func (p frontPlan) replay(ctx context.Context, it *trace.StoreIter, refs int, buf []uint64, visit func(words []uint64)) error {
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
		if visit != nil {
			visit(b[:n])
		}
		refs -= n
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// settle closes a replay call on every exit: the taps and miss logs
// are disarmed and each follower adopts its leader's front
// (System.adoptFront).
func (p frontPlan) settle() {
	for _, c := range p {
		c.leader.tap, c.leader.log = nil, nil
		for _, f := range c.followers {
			f.log = nil
			f.adoptFront(c.leader)
		}
	}
}
