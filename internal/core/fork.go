// Fork/merge support for the window-sharded replay engine: a System
// can be deep-copied (architectural state only, statistics zeroed) so
// that disjoint runs of trace windows simulate concurrently, and the
// per-chunk statistic deltas merge back additively. See replay_window.go
// for the engine and DESIGN.md §10 for the exactness argument.
package core

import (
	"fmt"
	"reflect"
)

// Fork returns a system with a deep copy of s's architectural state —
// cache tags and replacement stamps, stream-buffer FIFOs and
// address generators, victim entries, filter histories, every
// replacement clock and RNG — counting into a zeroed counters value of
// its own. A fork therefore accumulates pure deltas: whatever its
// counters read later is exactly the work done since the fork. The
// retired-instruction counter starts at zero too, and the configuration
// (including any hooks) is shared with the original.
//
//simlint:statefull fork
func (s *System) Fork() *System {
	n := &System{cfg: s.cfg, geom: s.geom, l1i: s.l1i.Clone(), l1d: s.l1d.Clone()}
	// Zero values of the composite literal, written out so the fork
	// visibly decides the replay position, completion flag and scratch
	// outcome rather than inheriting whatever the literal omits.
	n.instructions, n.finished, n.out = 0, false, Outcome{}
	if s.victimI != nil {
		n.victimI, n.victimD = s.victimI.Clone(), s.victimD.Clone()
	}
	if s.streams != nil {
		n.streams = s.streams.Clone()
	}
	if s.streamsI != nil {
		n.streamsI = s.streamsI.Clone()
	}
	if s.uf != nil {
		n.uf = s.uf.Clone()
	}
	if s.nf != nil {
		n.nf = s.nf.Clone()
	}
	if s.md != nil {
		n.md = s.md.Clone()
	}
	n.bind()
	return n
}

// ResetStats zeroes every statistics counter while leaving the
// architectural state, the retired-instruction counter and the
// finished flag untouched. The window-sharded engine calls it on a
// fork after the warmup windows so the counted windows start from
// clean counters on warm state.
func (s *System) ResetStats() { s.ctr = counters{} }

// Merge accumulates o's statistics counters into s. Every counter the
// simulator maintains is additive over a partition of the reference
// stream, so merging per-chunk deltas in any order reproduces the
// totals a single pass would have counted for the same per-chunk
// work. Architectural state, the instruction counter and the scratch
// outcome are not touched; o is read-only.
//
// The sum is a whole-ledger consolidation, not a transfer event: every
// block in o's ledger was posted to the traffic hook when the chunk
// booked it (and hook-carrying systems never shard in the first
// place), so no post accompanies it.
//
//simlint:deterministic
func (s *System) Merge(o *System) {
	addLeaves(reflect.ValueOf(&s.ctr).Elem(), reflect.ValueOf(&o.ctr).Elem())
}

// addLeaves adds every leaf of src into the matching leaf of dst, two
// values of one type. A counter is additive only if it is an event
// count, so a leaf of any kind but uint64 panics: a new statistic that
// is not a count fails the first merge instead of merging wrongly.
func addLeaves(dst, src reflect.Value) {
	switch dst.Kind() {
	case reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint())
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addLeaves(dst.Field(i), src.Field(i))
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			addLeaves(dst.Index(i), src.Index(i))
		}
	default:
		panic(fmt.Sprintf("core: counter leaf of type %s is not a uint64 event count", dst.Type()))
	}
}

// adoptState takes o's components — the trace-end cache, stream and
// filter contents of the window-sharded engine's final chunk — while
// keeping s's accumulated counters, which every chunk has been merged
// into: the caller's system then carries both. o must not be used
// afterwards.
func (s *System) adoptState(o *System) {
	s.l1i, s.l1d = o.l1i, o.l1d
	s.victimI, s.victimD = o.victimI, o.victimD
	s.streams, s.streamsI = o.streams, o.streamsI
	s.uf, s.nf, s.md = o.uf, o.nf, o.md
	s.bind()
}
