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

// unitEntry is one slot of the unit-stride history buffer.
type unitEntry struct {
	block   mem.Addr // stored as missBlock+1 (Figure 4)
	valid   bool
	lastUse uint64
}

// UnitStride is the Section 6 filter: allocate a stream only after
// misses to blocks i and i+1.
type UnitStride struct {
	entries []unitEntry
	clock   uint64
	stats   *UnitStrideStats // where the filter counts; see CountInto
	own     UnitStrideStats  // what a filter built alone counts into
}

// NewUnitStride builds a filter with size history entries. The paper
// finds 8-10 sufficient and uses 16 for its Figure 5 data.
func NewUnitStride(size int) (*UnitStride, error) {
	if size < 1 {
		return nil, fmt.Errorf("filter: unit-stride filter needs >= 1 entry, got %d", size)
	}
	f := &UnitStride{entries: make([]unitEntry, size)}
	f.stats = &f.own
	return f, nil
}

// Size returns the number of history entries.
func (f *UnitStride) Size() int { return len(f.entries) }

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
	n.entries = append([]unitEntry(nil), f.entries...)
	return &n
}

// Lookup presents a block address that missed both the primary cache
// and the streams. It returns true when the miss completes a
// consecutive pair (block-1 missed recently): the caller should
// allocate a unit stream at missBlock and the matching history entry
// has been freed. On false the filter has recorded missBlock+1 so a
// future miss to the next block will match.
func (f *UnitStride) Lookup(missBlock mem.Addr) bool {
	f.clock++
	f.stats.Lookups++
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid && e.block == missBlock {
			// Two consecutive misses confirmed; free the entry (the
			// paper frees it as soon as the stream is detected).
			e.valid = false
			f.stats.Hits++
			return true
		}
	}
	f.insert(missBlock + 1)
	return false
}

// insert records a predicted next-miss block, evicting the LRU entry
// if the history is full.
func (f *UnitStride) insert(block mem.Addr) {
	victim := -1
	for i := range f.entries {
		e := &f.entries[i]
		if e.block == block && e.valid {
			e.lastUse = f.clock // refresh an existing prediction
			return
		}
		if !e.valid {
			if victim == -1 || f.entries[victim].valid {
				victim = i
			}
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(f.entries); i++ {
			if f.entries[i].lastUse < f.entries[victim].lastUse {
				victim = i
			}
		}
		f.stats.Evictions++
	}
	f.entries[victim] = unitEntry{block: block, valid: true, lastUse: f.clock}
	f.stats.Inserts++
}

// Reset clears the history but keeps statistics.
func (f *UnitStride) Reset() {
	for i := range f.entries {
		f.entries[i] = unitEntry{}
	}
}

// fsmState is the Figure 7 state of a non-unit-stride filter entry.
type fsmState uint8

const (
	// meta1 has seen one miss (last_addr recorded).
	meta1 fsmState = iota
	// meta2 has a stride guess awaiting verification.
	meta2
)

// nonUnitEntry is one slot of the non-unit-stride filter: the partition
// tag plus the FSM registers of Figure 7.
type nonUnitEntry struct {
	tag      mem.Addr
	lastAddr mem.Addr // word address of the previous miss in the zone
	stride   int64    // current stride guess (META2 only)
	state    fsmState
	valid    bool
	lastUse  uint64
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
type NonUnitStride struct {
	entries   []nonUnitEntry
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
	f := &NonUnitStride{entries: make([]nonUnitEntry, size), czoneBits: czoneBits}
	f.stats = &f.own
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

// Size returns the number of partition entries.
func (f *NonUnitStride) Size() int { return len(f.entries) }

// CzoneBits returns the current czone size in bits.
func (f *NonUnitStride) CzoneBits() uint { return f.czoneBits }

// SetCzoneBits changes the partition size at run time (the paper lets
// the program store a mask in a memory-mapped location). Changing the
// czone invalidates in-flight detections, since tags are reinterpreted.
func (f *NonUnitStride) SetCzoneBits(bits uint) error {
	if err := checkCzoneBits(bits); err != nil {
		return err
	}
	f.czoneBits = bits
	for i := range f.entries {
		f.entries[i] = nonUnitEntry{}
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
	n.entries = append([]nonUnitEntry(nil), f.entries...)
	return &n
}

// tag extracts the partition tag (the word-address bits above the
// czone) of a word address.
func (f *NonUnitStride) tag(word mem.Addr) mem.Addr {
	return word >> f.czoneBits
}

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
	t := f.tag(word)
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid || e.tag != t {
			continue
		}
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
				e.valid = false
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

// insert creates a fresh partition entry in META1.
func (f *NonUnitStride) insert(tag, word mem.Addr) {
	victim := -1
	for i := range f.entries {
		if !f.entries[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(f.entries); i++ {
			if f.entries[i].lastUse < f.entries[victim].lastUse {
				victim = i
			}
		}
		f.stats.Evictions++
	}
	f.entries[victim] = nonUnitEntry{
		tag: tag, lastAddr: word, state: meta1, valid: true, lastUse: f.clock,
	}
	f.stats.Inserts++
}

// Reset clears all partitions but keeps statistics.
func (f *NonUnitStride) Reset() {
	for i := range f.entries {
		f.entries[i] = nonUnitEntry{}
	}
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
