// Package filter implements the paper's stream-allocation filters.
//
// The unit-stride filter (Section 6, Figure 4) is a small history
// buffer that delays stream allocation until two misses to consecutive
// cache blocks are seen, eliminating isolated references and the memory
// bandwidth their speculative prefetches would waste.
//
// The non-unit-stride filter (Section 7, Figures 6 and 7) dynamically
// partitions the word-address space by a run-time "czone" size and runs
// a per-partition finite state machine that verifies a constant stride
// across three misses before allocating a strided stream. It sits
// behind the unit-stride filter: it observes only references that the
// unit-stride filter rejected.
//
// The minimum-delta scheme is the paper's alternative stride detector
// (kept for the ablation benches): it stores the last N miss addresses
// and uses the minimum distance to any of them as the stride.
//
// The two allocation filters run on every stream miss, so each keeps
// what its search compares in one array of its own: the unit-stride
// filter its predicted blocks, in recency order, and the czone filter
// its partition tags, with the all-ones tag marking a free entry.
// Each lookup is then one compare loop over that array.
package filter

import (
	"fmt"

	"streamsim/internal/mem"
)

// UnitStrideStats counts unit-stride filter behaviour.
type UnitStrideStats struct {
	// Lookups is the number of stream misses presented.
	Lookups uint64
	// Hits is the number of lookups that matched (stream allocated).
	Hits uint64
	// Inserts counts new history entries written.
	Inserts uint64
	// Evictions counts history entries displaced by Inserts.
	Evictions uint64
}

// HitRate returns Hits/Lookups, or 0 with no lookups.
func (s UnitStrideStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// UnitStride is the Section 6 filter: allocate a stream only after
// misses to blocks i and i+1.
//
// lru holds the predicted next-miss blocks in the order they were last
// written, least recent first, and its capacity is the filter's size:
// the entries past its length are the free ones, the LRU victim is
// lru[0], and a lookup is one compare loop over it.
type UnitStride struct {
	lru   []mem.Addr       // each stored as missBlock+1 (Figure 4)
	stats *UnitStrideStats // where the filter counts; see CountInto
	own   UnitStrideStats  // what a filter built alone counts into
}

// NewUnitStride builds a filter with size history entries. The paper
// finds 8-10 sufficient and uses 16 for its Figure 5 data.
func NewUnitStride(size int) (*UnitStride, error) {
	if size < 1 {
		return nil, fmt.Errorf("filter: unit-stride filter needs >= 1 entry, got %d", size)
	}
	f := &UnitStride{lru: make([]mem.Addr, 0, size)}
	f.stats = &f.own
	return f, nil
}

// Stats returns a copy of the accumulated statistics.
func (f *UnitStride) Stats() UnitStrideStats { return *f.stats }

// CountInto redirects counting to *st from now on without disturbing
// the history (see cache.Cache.CountInto).
func (f *UnitStride) CountInto(st *UnitStrideStats) { f.stats = st }

// Clone returns a deep copy of the filter, counting into a copy of the
// statistics of its own; the clone evolves independently of the
// original.
func (f *UnitStride) Clone() *UnitStride {
	n := *f
	n.own, n.stats = *f.stats, &n.own
	n.lru = append(make([]mem.Addr, 0, cap(f.lru)), f.lru...)
	return &n
}

// Lookup presents a block address that missed both the primary cache
// and the streams. It returns true when the miss completes a
// consecutive pair (block-1 missed recently): the caller should
// allocate a unit stream at missBlock and the matching history entry
// has been freed. On false the filter has recorded missBlock+1 so a
// future miss to the next block will match, refreshing that prediction
// if it was already held and otherwise evicting the least recently
// written one when the history is full.
func (f *UnitStride) Lookup(missBlock mem.Addr) bool {
	f.stats.Lookups++
	next, refresh := missBlock+1, -1
	for i, b := range f.lru {
		if b == missBlock {
			// Two consecutive misses confirmed; free the entry (the
			// paper frees it as soon as the stream is detected).
			f.lru = append(f.lru[:i], f.lru[i+1:]...)
			f.stats.Hits++
			return true
		}
		if b == next {
			refresh = i
		}
	}
	if refresh >= 0 {
		f.lru = append(f.lru[:refresh], f.lru[refresh+1:]...)
	} else {
		if len(f.lru) == cap(f.lru) {
			f.lru = append(f.lru[:0], f.lru[1:]...)
			f.stats.Evictions++
		}
		f.stats.Inserts++
	}
	f.lru = append(f.lru, next)
	return false
}

// fsmState is the Figure 7 state of a non-unit-stride filter entry.
type fsmState uint8

const (
	// meta1 has seen one miss (last_addr recorded).
	meta1 fsmState = iota
	// meta2 has a stride guess awaiting verification.
	meta2
)

// czoneEntry holds the Figure 7 FSM registers of one partition entry;
// its tag is in NonUnitStride.tags.
type czoneEntry struct {
	lastAddr mem.Addr // word address of the previous miss in the zone
	stride   int64    // current stride guess (META2 only)
	state    fsmState
	lastUse  uint64 // 0 while the entry is free
}

// NonUnitStrideStats counts non-unit-stride filter behaviour.
type NonUnitStrideStats struct {
	// Observations is the number of references presented.
	Observations uint64
	// Allocations is the number of verified strides (streams allocated).
	Allocations uint64
	// Inserts counts new partition entries created.
	Inserts uint64
	// Evictions counts partitions displaced while mid-detection.
	Evictions uint64
	// StrideChanges counts META2 guesses that had to be revised.
	StrideChanges uint64
}

// NonUnitStride is the Section 7 czone-partitioned stride detector.
// tags holds each entry's partition tag, none when the entry is free,
// so an observation's search is one compare loop; entries holds the
// FSM registers alongside.
type NonUnitStride struct {
	tags      []mem.Addr
	entries   []czoneEntry
	czoneBits uint
	clock     uint64
	stats     *NonUnitStrideStats // where the detector counts; see CountInto
	own       NonUnitStrideStats  // what a detector built alone counts into
}

// Czone size limits: the paper sweeps 10-26 bits of word address
// (Figure 9); we accept any usable split of a 64-bit word address.
const (
	MinCzoneBits = 1
	MaxCzoneBits = 62
)

// NewNonUnitStride builds a detector with size partition entries and
// the given czone size in bits of word address. The paper uses 16
// entries and czone sizes between 10 and 26 bits.
func NewNonUnitStride(size int, czoneBits uint) (*NonUnitStride, error) {
	if err := ValidateNonUnitStride(size, czoneBits); err != nil {
		return nil, err
	}
	f := &NonUnitStride{tags: make([]mem.Addr, size), entries: make([]czoneEntry, size), czoneBits: czoneBits}
	f.stats = &f.own
	for i := range f.tags {
		f.tags[i] = none
	}
	return f, nil
}

// ValidateNonUnitStride checks NewNonUnitStride's arguments without
// allocating anything: at least one entry, and a czone size within
// [MinCzoneBits, MaxCzoneBits].
func ValidateNonUnitStride(size int, czoneBits uint) error {
	if size < 1 {
		return fmt.Errorf("filter: non-unit-stride filter needs >= 1 entry, got %d", size)
	}
	return checkCzoneBits(czoneBits)
}

func checkCzoneBits(bits uint) error {
	if bits < MinCzoneBits || bits > MaxCzoneBits {
		return fmt.Errorf("filter: czone size %d bits outside [%d, %d]",
			bits, MinCzoneBits, MaxCzoneBits)
	}
	return nil
}

// Stats returns a copy of the accumulated statistics.
func (f *NonUnitStride) Stats() NonUnitStrideStats { return *f.stats }

// CountInto redirects counting to *st from now on without disturbing
// the partitions (see cache.Cache.CountInto).
func (f *NonUnitStride) CountInto(st *NonUnitStrideStats) { f.stats = st }

// Clone returns a deep copy of the detector, counting into a copy of
// the statistics of its own; the clone evolves independently of the
// original.
func (f *NonUnitStride) Clone() *NonUnitStride {
	n := *f
	n.own, n.stats = *f.stats, &n.own
	n.tags = append([]mem.Addr(nil), f.tags...)
	n.entries = append([]czoneEntry(nil), f.entries...)
	return &n
}

// none is the tag of a free czone entry. A tag is a word address
// shifted right by at least one bit, so it never reaches all ones.
const none = ^mem.Addr(0)

// Observe presents the word address of a reference that missed the
// primary cache, the streams, and the unit-stride filter. When three
// consecutive same-partition misses with equal deltas have been seen it
// returns alloc=true with the stream parameters: prefetching should
// start from lastWord+stride. The partition entry is freed on
// allocation (Section 7: "at the end of three consecutive strided
// references a stream is allocated and the entry in the filter is
// freed").
func (f *NonUnitStride) Observe(word mem.Addr) (alloc bool, lastWord mem.Addr, stride int64) {
	f.clock++
	f.stats.Observations++
	t := word >> f.czoneBits // the partition: the word-address bits above the czone
	for i, tag := range f.tags {
		if tag != t {
			continue
		}
		e := &f.entries[i]
		e.lastUse = f.clock
		delta := int64(word) - int64(e.lastAddr)
		if delta == 0 {
			// Same word missed again (possible under trace sampling);
			// no information, leave the FSM untouched.
			return false, 0, 0
		}
		switch e.state {
		case meta1:
			// Second reference: record the stride guess.
			e.stride = delta
			e.lastAddr = word
			e.state = meta2
			return false, 0, 0
		default: // meta2
			if delta == e.stride {
				// Verified: allocate and free the entry.
				f.tags[i] = none
				e.lastUse = 0
				f.stats.Allocations++
				return true, word, delta
			}
			// Revised guess (Figure 7's self-loop on META2).
			e.stride = delta
			e.lastAddr = word
			f.stats.StrideChanges++
			return false, 0, 0
		}
	}
	f.insert(t, word)
	return false, 0, 0
}

// insert creates a fresh partition entry in META1 in the first free
// entry, or else over the least recently used one, in one scan: a free
// entry's lastUse is 0 and a live one's at least 1.
func (f *NonUnitStride) insert(tag, word mem.Addr) {
	v := 0
	for i := range f.entries {
		if u := f.entries[i].lastUse; u == 0 {
			v = i
			break
		} else if u < f.entries[v].lastUse {
			v = i
		}
	}
	if f.tags[v] != none {
		f.stats.Evictions++
	}
	f.tags[v] = tag
	f.entries[v] = czoneEntry{lastAddr: word, state: meta1, lastUse: f.clock}
	f.stats.Inserts++
}

// MinDeltaStats counts minimum-delta scheme behaviour.
type MinDeltaStats struct {
	// Observations is the number of references presented.
	Observations uint64
	// Allocations is the number of strides produced.
	Allocations uint64
}

// MinDelta is the paper's alternative stride detector: a history of the
// last N miss word-addresses; the minimum distance between a new miss
// and any entry becomes the stride. The paper found its performance
// similar to the partition scheme but its hardware (N subtractions and
// a minimum reduction per miss) less attractive.
type MinDelta struct {
	history  []mem.Addr
	valid    []bool
	next     int
	maxDelta int64
	stats    *MinDeltaStats // where the scheme counts; see CountInto
	own      MinDeltaStats  // what a scheme built alone counts into
}

// NewMinDelta builds the scheme with size history entries. maxDelta
// bounds the accepted stride magnitude in words (0 means unbounded);
// a bound keeps unrelated misses from producing nonsense strides.
func NewMinDelta(size int, maxDelta int64) (*MinDelta, error) {
	if err := ValidateMinDelta(size, maxDelta); err != nil {
		return nil, err
	}
	f := &MinDelta{
		history:  make([]mem.Addr, size),
		valid:    make([]bool, size),
		maxDelta: maxDelta,
	}
	f.stats = &f.own
	return f, nil
}

// ValidateMinDelta checks NewMinDelta's arguments without allocating
// anything: at least one entry and a non-negative stride bound.
func ValidateMinDelta(size int, maxDelta int64) error {
	if size < 1 {
		return fmt.Errorf("filter: min-delta scheme needs >= 1 entry, got %d", size)
	}
	if maxDelta < 0 {
		return fmt.Errorf("filter: negative maxDelta %d", maxDelta)
	}
	return nil
}

// Stats returns a copy of the accumulated statistics.
func (f *MinDelta) Stats() MinDeltaStats { return *f.stats }

// CountInto redirects counting to *st from now on without disturbing
// the history (see cache.Cache.CountInto).
func (f *MinDelta) CountInto(st *MinDeltaStats) { f.stats = st }

// Clone returns a deep copy of the scheme, counting into a copy of the
// statistics of its own; the clone evolves independently of the
// original.
func (f *MinDelta) Clone() *MinDelta {
	n := *f
	n.own, n.stats = *f.stats, &n.own
	n.history = append([]mem.Addr(nil), f.history...)
	n.valid = append([]bool(nil), f.valid...)
	return &n
}

// Observe presents a miss word address and returns a stride when one
// can be derived: the signed delta to the nearest history entry. The
// address is recorded afterwards (FIFO replacement).
func (f *MinDelta) Observe(word mem.Addr) (alloc bool, stride int64) {
	f.stats.Observations++
	best := int64(0)
	found := false
	for i, h := range f.history {
		if !f.valid[i] {
			continue
		}
		d := int64(word) - int64(h)
		if d == 0 {
			continue
		}
		if !found || abs64(d) < abs64(best) {
			best, found = d, true
		}
	}
	f.history[f.next] = word
	f.valid[f.next] = true
	f.next = (f.next + 1) % len(f.history)
	if !found || (f.maxDelta > 0 && abs64(best) > f.maxDelta) {
		return false, 0
	}
	f.stats.Allocations++
	return true, best
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
