package filter

import (
	"testing"
	"testing/quick"

	"streamsim/internal/mem"
)

func TestNewUnitStrideValidation(t *testing.T) {
	if _, err := NewUnitStride(0); err == nil {
		t.Error("size 0 should be rejected")
	}
	f, err := NewUnitStride(8)
	if err != nil {
		t.Fatal(err)
	}
	if cap(f.lru) != 8 {
		t.Errorf("size = %d, want 8", cap(f.lru))
	}
}

func TestUnitStrideConsecutivePair(t *testing.T) {
	f, _ := NewUnitStride(8)
	if f.Lookup(100) {
		t.Fatal("first miss must not match")
	}
	if !f.Lookup(101) {
		t.Fatal("second consecutive miss must match")
	}
	s := f.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v, want 2 lookups, 1 hit, 1 insert", s)
	}
}

func TestUnitStrideEntryFreedOnHit(t *testing.T) {
	f, _ := NewUnitStride(8)
	f.Lookup(100)
	f.Lookup(101) // hit, entry freed
	// The same pair again requires re-priming.
	if f.Lookup(101) {
		t.Error("entry should have been freed; immediate re-lookup must miss")
	}
}

func TestUnitStrideIsolatedReferencesFiltered(t *testing.T) {
	f, _ := NewUnitStride(8)
	// Widely scattered misses never match.
	for _, b := range []mem.Addr{10, 500, 90, 7000, 42, 123456} {
		if f.Lookup(b) {
			t.Errorf("isolated miss %d should not match", b)
		}
	}
	if got := f.Stats().Hits; got != 0 {
		t.Errorf("Hits = %d, want 0", got)
	}
}

func TestUnitStrideNonConsecutiveGap(t *testing.T) {
	f, _ := NewUnitStride(8)
	f.Lookup(100)
	if f.Lookup(102) {
		t.Error("gap of 2 blocks must not match (strictly consecutive)")
	}
}

func TestUnitStrideBackwardRunNotDetected(t *testing.T) {
	// The Figure 4 filter stores a+1 only: descending runs never match.
	f, _ := NewUnitStride(8)
	f.Lookup(100)
	if f.Lookup(99) {
		t.Error("descending pair must not match the unit-stride filter")
	}
}

func TestUnitStrideCapacityEviction(t *testing.T) {
	f, _ := NewUnitStride(2)
	f.Lookup(10) // stores 11
	f.Lookup(20) // stores 21
	f.Lookup(30) // stores 31, evicting 11 (LRU)
	if f.Lookup(11) {
		t.Error("prediction for 11 should have been evicted")
	}
	if got := f.Stats().Evictions; got == 0 {
		t.Error("expected at least one eviction")
	}
	if !f.Lookup(31) {
		t.Error("most recent prediction should survive")
	}
}

func TestUnitStrideDuplicateInsertRefreshes(t *testing.T) {
	f, _ := NewUnitStride(2)
	f.Lookup(10) // stores 11
	f.Lookup(10) // stores 11 again -> refresh, not second entry
	f.Lookup(20) // stores 21 in the second slot
	// 11 must still be present: the duplicate didn't consume a slot.
	if !f.Lookup(11) {
		t.Error("refreshed prediction lost")
	}
}

func TestUnitStrideStatsHitRate(t *testing.T) {
	var s UnitStrideStats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	s = UnitStrideStats{Lookups: 8, Hits: 2}
	if s.HitRate() != 0.25 {
		t.Errorf("HitRate = %v, want 0.25", s.HitRate())
	}
}

// Property: a strictly sequential run of N>=2 block misses produces
// exactly floor(N/2) filter hits (each hit frees the entry, so pairs).
func TestUnitStrideSequentialPairing(t *testing.T) {
	f := func(startRaw uint16, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		fl, err := NewUnitStride(16)
		if err != nil {
			return false
		}
		hits := 0
		for i := 0; i < n; i++ {
			if fl.Lookup(mem.Addr(startRaw) + mem.Addr(i)) {
				hits++
			}
		}
		return hits == n/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewNonUnitStrideValidation(t *testing.T) {
	if _, err := NewNonUnitStride(0, 16); err == nil {
		t.Error("size 0 should be rejected")
	}
	if _, err := NewNonUnitStride(16, 0); err == nil {
		t.Error("czone 0 should be rejected")
	}
	if _, err := NewNonUnitStride(16, 63); err == nil {
		t.Error("czone 63 should be rejected")
	}
	f, err := NewNonUnitStride(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.tags) != 16 || f.czoneBits != 16 {
		t.Errorf("size/czone bits = %d/%d, want 16/16", len(f.tags), f.czoneBits)
	}
}

func TestNonUnitStrideThreeStridedRefs(t *testing.T) {
	f, _ := NewNonUnitStride(16, 16)
	base := mem.Addr(0x10000)
	const stride = 300
	if a, _, _ := f.Observe(base); a {
		t.Fatal("first reference must not allocate")
	}
	if a, _, _ := f.Observe(base + stride); a {
		t.Fatal("second reference must not allocate")
	}
	alloc, last, got := f.Observe(base + 2*stride)
	if !alloc {
		t.Fatal("third equal-stride reference must allocate")
	}
	if got != stride {
		t.Errorf("stride = %d, want %d", got, stride)
	}
	if last != base+2*stride {
		t.Errorf("lastWord = %#x, want %#x", last, base+2*stride)
	}
}

func TestNonUnitStrideEntryFreedOnAllocation(t *testing.T) {
	f, _ := NewNonUnitStride(16, 16)
	base := mem.Addr(0x10000)
	f.Observe(base)
	f.Observe(base + 100)
	f.Observe(base + 200) // allocates, frees entry
	// Next same-partition miss starts detection over (META1).
	if a, _, _ := f.Observe(base + 300); a {
		t.Error("entry should have been freed; detection must restart")
	}
	if a, _, _ := f.Observe(base + 400); a {
		t.Error("second post-free reference must not allocate yet")
	}
	if a, _, _ := f.Observe(base + 500); !a {
		t.Error("third post-free strided reference should allocate")
	}
}

func TestNonUnitStrideNegative(t *testing.T) {
	f, _ := NewNonUnitStride(16, 16)
	// Mid-partition base so the backward walk stays in one czone.
	base := mem.Addr(0x20000 + 0x8000)
	f.Observe(base)
	f.Observe(base - 500)
	alloc, _, stride := f.Observe(base - 1000)
	if !alloc || stride != -500 {
		t.Errorf("(alloc, stride) = (%v, %d), want (true, -500)", alloc, stride)
	}
}

func TestNonUnitStrideRevisedGuess(t *testing.T) {
	f, _ := NewNonUnitStride(16, 16)
	base := mem.Addr(0x10000)
	f.Observe(base)
	f.Observe(base + 100) // guess 100
	if a, _, _ := f.Observe(base + 300); a {
		t.Fatal("delta 200 != guess 100: must not allocate")
	}
	// New guess is 200; verify it.
	alloc, _, stride := f.Observe(base + 500)
	if !alloc || stride != 200 {
		t.Errorf("(alloc, stride) = (%v, %d), want (true, 200)", alloc, stride)
	}
	if got := f.Stats().StrideChanges; got != 1 {
		t.Errorf("StrideChanges = %d, want 1", got)
	}
}

func TestNonUnitStrideZeroDeltaIgnored(t *testing.T) {
	f, _ := NewNonUnitStride(16, 16)
	base := mem.Addr(0x10000)
	f.Observe(base)
	f.Observe(base) // duplicate: no state change
	f.Observe(base + 100)
	alloc, _, stride := f.Observe(base + 200)
	if !alloc || stride != 100 {
		t.Errorf("(alloc, stride) = (%v, %d), want (true, 100): duplicates must not derail the FSM", alloc, stride)
	}
}

func TestNonUnitStridePartitionIsolation(t *testing.T) {
	// Two interleaved strided walks in different partitions must both
	// be detected: partitioning is the whole point (Section 7).
	f, _ := NewNonUnitStride(16, 16)
	a := mem.Addr(1) << 20 // partition tags differ at czone 16
	b := mem.Addr(5) << 20
	var gotA, gotB bool
	for i := mem.Addr(0); i < 3; i++ {
		if al, _, s := f.Observe(a + i*300); al && s == 300 {
			gotA = true
		}
		if al, _, s := f.Observe(b + i*700); al && s == 700 {
			gotB = true
		}
	}
	if !gotA || !gotB {
		t.Errorf("interleaved partitions detected (A, B) = (%v, %v), want both", gotA, gotB)
	}
}

func TestNonUnitStrideCzoneTooSmall(t *testing.T) {
	// If the czone is smaller than the stride, consecutive references
	// land in different partitions and are never correlated — the
	// paper's Figure 9 failure mode.
	f, _ := NewNonUnitStride(16, 4) // 16-word partitions
	base := mem.Addr(0x10000)
	const stride = 1000 // >> 16 words
	for i := mem.Addr(0); i < 10; i++ {
		if alloc, _, _ := f.Observe(base + i*stride); alloc {
			t.Fatal("stride larger than partition must not be detected")
		}
	}
}

func TestNonUnitStrideCzoneTooLargeInterference(t *testing.T) {
	// With a huge czone, two interleaved streams fall into the same
	// partition and their deltas alternate, blocking verification —
	// the other Figure 9 failure mode.
	f, _ := NewNonUnitStride(16, 40)
	a := mem.Addr(0x100000)
	b := mem.Addr(0x900000)
	for i := mem.Addr(0); i < 8; i++ {
		if alloc, _, _ := f.Observe(a + i*300); alloc {
			t.Fatal("interfering streams should prevent detection (A)")
		}
		if alloc, _, _ := f.Observe(b + i*300); alloc {
			t.Fatal("interfering streams should prevent detection (B)")
		}
	}
}

func TestNonUnitStrideEviction(t *testing.T) {
	f, _ := NewNonUnitStride(2, 16)
	// Three distinct partitions: the first (LRU) is evicted.
	f.Observe(mem.Addr(1) << 20)
	f.Observe(mem.Addr(2) << 20)
	f.Observe(mem.Addr(3) << 20)
	if got := f.Stats().Evictions; got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
	// Partition 1's state is gone: two more refs there don't allocate,
	// three do.
	p := mem.Addr(1) << 20
	if a, _, _ := f.Observe(p + 100); a {
		t.Error("evicted partition must restart detection")
	}
}

// Property: any constant word stride whose magnitude fits well inside
// the partition is detected on the third observation.
func TestNonUnitStrideDetectsAnyFittingStride(t *testing.T) {
	f := func(strideRaw int16, baseRaw uint16) bool {
		stride := int64(strideRaw)
		if stride == 0 {
			stride = 17
		}
		// czone 20 bits: strides up to 2^15 easily fit.
		fl, err := NewNonUnitStride(16, 20)
		if err != nil {
			return false
		}
		// Mid-partition base (czone 20 bits => 2^20-word zones) so that
		// base +/- 2*stride (|stride| <= 2^15) stays inside one zone.
		base := int64(1)<<30 + int64(1)<<19 + int64(baseRaw%1024)
		fl.Observe(mem.Addr(base))
		if a, _, _ := fl.Observe(mem.Addr(base + stride)); a {
			return false
		}
		alloc, _, got := fl.Observe(mem.Addr(base + 2*stride))
		return alloc && got == stride
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewMinDeltaValidation(t *testing.T) {
	if _, err := NewMinDelta(0, 0); err == nil {
		t.Error("size 0 should be rejected")
	}
	if _, err := NewMinDelta(4, -1); err == nil {
		t.Error("negative maxDelta should be rejected")
	}
}

func TestMinDeltaBasic(t *testing.T) {
	f, _ := NewMinDelta(4, 0)
	if a, _ := f.Observe(1000); a {
		t.Fatal("first observation has no history")
	}
	alloc, stride := f.Observe(1300)
	if !alloc || stride != 300 {
		t.Errorf("(alloc, stride) = (%v, %d), want (true, 300)", alloc, stride)
	}
}

func TestMinDeltaPicksNearest(t *testing.T) {
	f, _ := NewMinDelta(4, 0)
	f.Observe(1000)
	f.Observe(5000)
	alloc, stride := f.Observe(5200) // nearest is 5000 -> delta 200
	if !alloc || stride != 200 {
		t.Errorf("(alloc, stride) = (%v, %d), want (true, 200)", alloc, stride)
	}
	alloc, stride = f.Observe(900) // nearest is 1000 -> delta -100
	if !alloc || stride != -100 {
		t.Errorf("(alloc, stride) = (%v, %d), want (true, -100)", alloc, stride)
	}
}

func TestMinDeltaMaxDeltaBound(t *testing.T) {
	f, _ := NewMinDelta(4, 100)
	f.Observe(1000)
	if a, _ := f.Observe(5000); a {
		t.Error("delta 4000 exceeds bound 100; must not allocate")
	}
	if a, s := f.Observe(5050); !a || s != 50 {
		t.Error("delta 50 within bound should allocate")
	}
}

func TestMinDeltaFIFOWraparound(t *testing.T) {
	f, _ := NewMinDelta(2, 0)
	f.Observe(10)
	f.Observe(1000)
	f.Observe(2000) // evicts 10
	// Nearest to 30 is now 1000, not 10.
	alloc, stride := f.Observe(30)
	if !alloc || stride != -970 {
		t.Errorf("(alloc, stride) = (%v, %d), want (true, -970)", alloc, stride)
	}
}

func TestMinDeltaStats(t *testing.T) {
	f, _ := NewMinDelta(4, 0)
	f.Observe(1)
	f.Observe(100)
	s := f.Stats()
	if s.Observations != 2 || s.Allocations != 1 {
		t.Errorf("stats = %+v, want 2 observations / 1 allocation", s)
	}
}

// referenceNonUnit is a brute-force reimplementation of the Section 7
// scheme used to model-check NonUnitStride: a map of partitions, each
// holding the Figure 7 FSM registers and the clock of its last
// observation. A new partition at capacity (size) evicts the one
// observed least recently.
type referenceNonUnit struct {
	czone uint
	size  int
	clock uint64
	parts map[mem.Addr]*refEntry
}

type refEntry struct {
	last    mem.Addr
	stride  int64
	meta2   bool
	lastUse uint64
}

func (r *referenceNonUnit) observe(w mem.Addr) (bool, mem.Addr, int64) {
	r.clock++
	tag := w >> r.czone
	e, ok := r.parts[tag]
	if !ok {
		if len(r.parts) == r.size {
			var lru *refEntry
			var lruTag mem.Addr
			for t, p := range r.parts {
				if lru == nil || p.lastUse < lru.lastUse {
					lru, lruTag = p, t
				}
			}
			delete(r.parts, lruTag)
		}
		r.parts[tag] = &refEntry{last: w, lastUse: r.clock}
		return false, 0, 0
	}
	e.lastUse = r.clock
	d := int64(w) - int64(e.last)
	if d == 0 {
		return false, 0, 0
	}
	if !e.meta2 {
		e.stride, e.last, e.meta2 = d, w, true
		return false, 0, 0
	}
	if d == e.stride {
		delete(r.parts, tag)
		return true, w, d
	}
	e.stride, e.last = d, w
	return false, 0, 0
}

// Property: the hardware model agrees exactly with the brute-force
// reference on any observation sequence, both with a table of one to
// four entries, whose partitions evict each other (so the LRU victim
// is checked, and one eviction is counted per partition the reference
// dropped at capacity), and with an oversized table that never evicts.
func TestNonUnitStrideMatchesReference(t *testing.T) {
	f := func(wordsRaw []uint16, czoneRaw, sizeRaw uint8) bool {
		czone := uint(czoneRaw%12) + 4
		size := 4096
		if sizeRaw%2 == 0 {
			size = int(sizeRaw/2%4) + 1
		}
		hw, err := NewNonUnitStride(size, czone)
		if err != nil {
			return false
		}
		ref := &referenceNonUnit{czone: czone, size: size, parts: map[mem.Addr]*refEntry{}}
		var evictions uint64
		for _, w := range wordsRaw {
			word := mem.Addr(w)
			if _, ok := ref.parts[word>>czone]; !ok && len(ref.parts) == size {
				evictions++
			}
			a1, l1, s1 := hw.Observe(word)
			a2, l2, s2 := ref.observe(word)
			if a1 != a2 || l1 != l2 || s1 != s2 {
				return false
			}
		}
		return hw.Stats().Evictions == evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzUnitStride drives a UnitStride and a naive reference, a map from
// each predicted block to the clock of the lookup that last wrote it,
// which evicts the smallest clock at capacity, with the same misses and
// requires the same Lookup results and statistics. The first byte picks
// a size of 1-6 entries; every further byte is a miss to one of 24
// blocks, so pairs, refreshes and evictions all occur.
func FuzzUnitStride(f *testing.F) {
	f.Add([]byte{1, 10, 20, 30, 11, 31, 21})
	f.Add([]byte{2, 10, 10, 20, 11, 30, 40, 31, 21, 41})
	f.Add([]byte{3, 1, 5, 9, 2, 13, 17, 6, 21, 10, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		size := int(data[0]%6) + 1
		fl, err := NewUnitStride(size)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[mem.Addr]uint64{}
		var want UnitStrideStats
		for clock, b := range data[1:] {
			blk := mem.Addr(b % 24)
			want.Lookups++
			_, hit := ref[blk]
			if hit {
				delete(ref, blk)
				want.Hits++
			} else if _, held := ref[blk+1]; !held {
				if len(ref) == size {
					lru := blk + 1
					for p, c := range ref {
						if lru == blk+1 || c < ref[lru] {
							lru = p
						}
					}
					delete(ref, lru)
					want.Evictions++
				}
				want.Inserts++
			}
			if !hit {
				ref[blk+1] = uint64(clock)
			}
			if got := fl.Lookup(blk); got != hit {
				t.Fatalf("lookup %d of block %d = %v, want %v", clock, blk, got, hit)
			}
		}
		if got := fl.Stats(); got != want {
			t.Fatalf("Stats = %+v, want %+v", got, want)
		}
	})
}
