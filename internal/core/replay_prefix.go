// The one multi-system replay: every hit-rate experiment row, sweep
// point and optimizer score in the module replays a recorded trace
// through ReplayStoreMultiPrefixFrom, whole traces as the range
// [0, end), and every timed row through ReplayStoreMultiLogged, the
// same pass with each system's miss log armed.
// Successive halving (internal/search) also scores cheap early rungs
// on a prefix of the sample windows — one decode pass feeds every
// candidate, and candidates sharing an L1 front simulate it once — and
// extends survivors onto longer prefixes and finally the whole trace.
// A replay may start at any window boundary via the store's O(1) seek
// index, so with checkpointed candidates each rung replays only the
// windows the previous rung has not seen (DESIGN.md §12).
package core

import (
	"context"

	"streamsim/internal/trace"
)

// ReplayStoreMultiPrefixFrom replays the sample windows [fromWindow,
// toWindow) of a recorded trace through every system, decoding each
// batch exactly once and seeking the decoder to fromWindow's boundary
// in O(1) via the store's window index. toWindow <= 0 or beyond the
// window count means the end of the trace; fromWindow is clamped to
// [0, toWindow]. The replay is sequential and exact: from window 0
// each system observes precisely the access stream a solo ReplayStore
// over the same prefix would deliver, on any host, so prefix scores
// are machine-independent and identical no matter how candidates are
// grouped into generations. The decoder's ring predictors are part of
// the seek state, so a later start delivers byte-for-byte the suffix a
// from-scratch replay would: extending systems restored from a
// Checkpoint taken at fromWindow produces scores identical to
// replaying [0, toWindow) from scratch. Systems sharing a front key
// must meet frontPlan's precondition. On every exit each returned
// system is individually resumable: followers take their leader's
// front state before returning (see System.adoptFront). On
// cancellation every system has consumed the same prefix and ctx.Err()
// is returned.
//
//simlint:deterministic
func ReplayStoreMultiPrefixFrom(ctx context.Context, systems []*System, st *trace.Store, fromWindow, toWindow int) error {
	return replayRange(ctx, systems, st, fromWindow, toWindow, nil)
}

// ReplayStoreMultiLogged is ReplayStoreMultiPrefixFrom over the whole
// trace with every system's miss log armed: after each batch, batch is
// called with the batch's packed references, and each system's
// MissLog then lists the ones that left its L1-hit path, in order,
// with how that system serviced each; every other reference of the
// batch hit in its L1. This is what a timing model needs to charge a
// batch (internal/timing), and the front is still simulated once per
// class: leaders log from their probe loops, and followers replay the
// leader's tap one logged reference at a time. On cancellation every
// system has consumed the same prefix, batch has seen all of it, and
// ctx.Err() is returned.
//
//simlint:deterministic
func ReplayStoreMultiLogged(ctx context.Context, systems []*System, st *trace.Store, batch func(words []uint64)) error {
	return replayRange(ctx, systems, st, 0, 0, batch)
}

// replayRange is the one body of both entry points: it clamps the
// window range, plans the fronts (arming the miss logs when visit is
// non-nil) and runs the range loop, settling the plan on every exit.
func replayRange(ctx context.Context, systems []*System, st *trace.Store, fromWindow, toWindow int, visit func(words []uint64)) error {
	if len(systems) == 0 {
		return nil
	}
	lastFanOut.Store(int64(len(systems)))
	if toWindow <= 0 || toWindow > st.WindowCount() {
		toWindow = st.WindowCount()
	}
	if fromWindow < 0 {
		fromWindow = 0
	}
	if fromWindow > toWindow {
		fromWindow = toWindow
	}
	if fromWindow == toWindow {
		return nil
	}
	p := planFronts(systems, visit != nil)
	defer p.settle()
	it := st.IterAtWindow(fromWindow)
	refs := st.PrefixLen(toWindow) - st.PrefixLen(fromWindow)
	return p.replay(ctx, &it, refs, make([]uint64, trace.ReplayBatchLen), visit)
}
