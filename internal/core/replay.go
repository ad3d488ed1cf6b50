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
// (System.tap); the followers replay only those events (applyTap). A
// class served from a stored front has no leader: stored replays the
// front's events to every member, and all of them are followers.
type frontClass struct {
	leader    *System
	followers []*System
	stored    *frontReader // the stored front serving the class, or nil
	rec       *frontWriter // records the leader's front, or nil
}

// frontPlan partitions one replay call's systems into front classes.
// It is built once per call (planFronts) and closed on every exit
// (settle).
//
// Precondition: systems with the same front key enter the call with
// identical front state — L1 and victim contents, replacement RNGs and
// their counters. Fresh systems and systems restored from checkpoints
// taken at the same window both meet it.
type frontPlan struct {
	classes []frontClass
	logged  bool // every system's miss log is armed
	live    bool // some class has a leader, so batches must be decoded
}

// planFronts groups systems by front key in order of first appearance;
// each class's first member leads. A leader with followers gets a tap
// buffer sized for the worst batch (a write-back and a fill per
// reference), so the tap never grows mid-replay. logged arms every
// system's miss log the same way, with room for one entry per
// reference of a batch and a clear outcome to log into.
//
// A non-nil memo serves whole-trace replays of st (see
// ReplayStoreFronts): a class of fresh systems whose front memo holds
// runs from the stored front, and any other class of fresh systems has
// its leader record its front, with tap and miss log armed.
func planFronts(systems []*System, logged bool, memo FrontMemo, st *trace.Store) *frontPlan {
	p := &frontPlan{classes: make([]frontClass, 0, len(systems)), logged: logged}
	keys := make([]frontKey, 0, len(systems))
next:
	for _, sys := range systems {
		k := sys.frontKey()
		for i := range keys {
			if keys[i] == k {
				p.classes[i].followers = append(p.classes[i].followers, sys)
				continue next
			}
		}
		keys = append(keys, k)
		p.classes = append(p.classes, frontClass{leader: sys})
	}
	for i := range p.classes {
		c := &p.classes[i]
		if memo != nil && c.fresh() {
			if f := memo.Front(c.leader.cfg); f != nil && f.key == keys[i] && f.refs == st.Len() {
				c.followers = append([]*System{c.leader}, c.followers...)
				c.leader, c.stored = nil, f.reader()
				continue
			}
			c.rec = newFrontWriter(keys[i], st.Len())
			c.leader.log = make([]Miss, 0, trace.ReplayBatchLen)
			c.leader.out = Outcome{}
		}
		p.live = true
		if len(c.followers) > 0 || c.rec != nil {
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

// fresh reports whether the class's systems have presented no
// reference to their L1s yet, so its front starts from the state New
// builds. Only a fresh class can be served from a stored front or
// record one.
func (c *frontClass) fresh() bool {
	if !c.leader.fresh() {
		return false
	}
	for _, f := range c.followers {
		if !f.fresh() {
			return false
		}
	}
	return true
}

// step presents one batch of n references to every class: the leader
// simulates words, the batch's decoded references, and a stored front
// decodes the batch's events; then each follower replays the tapped
// events — one logged reference at a time when the miss logs are
// armed. A leader without followers has a nil tap and records nothing
// unless it records its front. words is nil when no class has a
// leader. The caller decodes the next batch into words after the call
// returns, so step keeps no part of it.
func (p *frontPlan) step(words []uint64, n int) {
	for i := range p.classes {
		c := &p.classes[i]
		var tap []uint64
		var log []Miss
		if lead := c.leader; lead != nil {
			lead.tap = lead.tap[:0]
			lead.log = lead.log[:0]
			lead.AccessPacked(words)
			if c.rec != nil {
				c.rec.add(words, lead.tap, lead.log)
			}
			tap, log = lead.tap, lead.log
		} else {
			tap, log = c.stored.next(n)
		}
		for _, f := range c.followers {
			if p.logged {
				f.applyLog(tap, log)
			} else {
				f.applyTap(tap)
			}
		}
	}
}

// replay steps the plan over refs references of it, decoding each
// batch only when some class has a leader, hands each batch's length
// to visit when it is non-nil, and polls ctx between batches. buf is
// the decode buffer, which the caller may reuse or drop once the call
// returns, so replay keeps no part of it. On cancellation every system
// has consumed the same prefix, visit has seen every batch they
// consumed, and ctx.Err() is returned.
func (p *frontPlan) replay(ctx context.Context, it *trace.StoreIter, refs int, buf []uint64, visit func(n int)) error {
	done := ctx.Done()
	for refs > 0 {
		n := min(refs, len(buf))
		var words []uint64
		if p.live {
			if n = it.NextPacked(buf[:n]); n == 0 {
				return nil
			}
			words = buf[:n]
		}
		p.step(words, n)
		if visit != nil {
			visit(n)
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
// (System.adoptFront). A class served from a stored front adopts the
// front's end state only when the replay completed, because a stored
// front keeps no state mid-trace: after a cancelled call its members
// keep the fronts they entered with.
func (p *frontPlan) settle(completed bool) {
	for _, c := range p.classes {
		front := c.leader
		if c.stored != nil {
			front = c.stored.f.end
		} else {
			front.tap, front.log = nil, nil
		}
		for _, f := range c.followers {
			f.log = nil
			if c.stored == nil || completed {
				f.adoptFront(front)
			}
		}
	}
}

// record hands the memo the front each recording leader recorded over
// the whole trace.
func (p *frontPlan) record(memo FrontMemo) {
	for _, c := range p.classes {
		if c.rec != nil {
			memo.AddFront(c.rec.front(c.leader))
		}
	}
}
