// Fork/merge support: a System can be deep-copied (architectural
// state only, statistics zeroed) so that a copy counts pure deltas,
// and deltas merge back additively. Checkpoint and Restore share the
// deep copy (clone).
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
// retired-instruction counter, the finished flag and the scratch
// outcome start from zero too, and the configuration (including any
// hooks) is shared with the original.
func (s *System) Fork() *System {
	n := s.clone()
	n.ctr, n.instructions, n.finished, n.out = counters{}, 0, false, Outcome{}
	return n
}

// clone deep-copies s: the system as one value, counters and replay
// position included, with each component swapped for its own Clone
// and bound to the copy's counters. Starting from the value copy
// carries every field by construction, so a copy can go wrong only by
// sharing a reference with its original, which TestSnapshotCopiesAreDeep
// walks for. The configuration, hooks included, is shared; tap and
// the miss log are nil between replay calls (settle disarms them), so
// no copy carries one.
func (s *System) clone() *System {
	n := *s
	n.l1i, n.l1d = s.l1i.Clone(), s.l1d.Clone()
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
	return &n
}

// Merge accumulates o's statistics counters into s. Every counter the
// simulator maintains is additive over a partition of the reference
// stream, so merging per-chunk deltas in any order reproduces the
// totals a single pass would have counted for the same per-chunk
// work. Architectural state, the instruction counter and the scratch
// outcome are not touched; o is read-only.
//
// The sum is a whole-ledger consolidation, not a transfer event: every
// block in o's ledger was posted to the traffic hook when o booked it,
// so no post accompanies it.
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
