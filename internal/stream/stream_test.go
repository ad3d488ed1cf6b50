package stream

import (
	"testing"
	"testing/quick"

	"streamsim/internal/mem"
)

func geom(t testing.TB) mem.Geometry {
	t.Helper()
	return mem.DefaultGeometry()
}

func newSet(t testing.TB, n, depth int) *Set {
	t.Helper()
	s, err := NewSet(geom(t), Config{Streams: n, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// hit probes s for blk and reports whether a stream head matched.
func hit(s *Set, blk mem.Addr) bool { return s.ProbeOutcome(blk).Hit }

// active counts the buffers of s that hold streams.
func active(s *Set) int {
	n := 0
	for _, r := range s.rank {
		if r != 0 {
			n++
		}
	}
	return n
}

func TestNewSetValidation(t *testing.T) {
	g := geom(t)
	if _, err := NewSet(g, Config{Streams: 0, Depth: 2}); err == nil {
		t.Error("zero streams should be rejected")
	}
	if _, err := NewSet(g, Config{Streams: 2, Depth: 0}); err == nil {
		t.Error("zero depth should be rejected")
	}
	if _, err := NewSet(g, Config{Streams: 4, Depth: 2}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestUnitStreamSequentialHits(t *testing.T) {
	s := newSet(t, 1, 2)
	// Miss on block 10 allocates a stream prefetching 11, 12.
	if hit(s, 10) {
		t.Fatal("cold probe should miss")
	}
	s.AllocateUnit(10)
	for blk := mem.Addr(11); blk < 30; blk++ {
		if !hit(s, blk) {
			t.Fatalf("probe of block %d should hit the running stream", blk)
		}
	}
	st := s.Stats()
	if st.Hits != 19 {
		t.Errorf("Hits = %d, want 19", st.Hits)
	}
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
	if st.Allocations != 1 {
		t.Errorf("Allocations = %d, want 1", st.Allocations)
	}
}

func TestHeadOnlyCompare(t *testing.T) {
	s := newSet(t, 1, 4)
	hit(s, 10)
	s.AllocateUnit(10) // FIFO holds 11, 12, 13, 14
	// Block 13 is in the FIFO but not at the head: must miss (the
	// hardware compares only the head tag).
	if hit(s, 13) {
		t.Error("non-head entry must not hit")
	}
}

func TestStridedStream(t *testing.T) {
	s := newSet(t, 1, 2)
	g := geom(t)
	// Stride of 100 words = 400 bytes (> one 64B block).
	const stride = 100
	base := mem.Addr(1 << 20) // word address
	hit(s, g.BlockAddr(base<<g.WordShift()))
	s.AllocateStrided(base, stride)
	for i := int64(1); i <= 20; i++ {
		w := base + mem.Addr(i*stride)
		if !hit(s, g.BlockAddr(w<<g.WordShift())) {
			t.Fatalf("strided probe %d (word %#x) should hit", i, w)
		}
	}
	if got := s.Stats().Hits; got != 20 {
		t.Errorf("Hits = %d, want 20", got)
	}
}

func TestNegativeStride(t *testing.T) {
	s := newSet(t, 1, 2)
	g := geom(t)
	base := mem.Addr(1 << 20)
	const stride = -64
	s.AllocateStrided(base, stride)
	for i := int64(1); i <= 10; i++ {
		w := mem.Addr(int64(base) + i*stride)
		if !hit(s, g.BlockAddr(w<<g.WordShift())) {
			t.Fatalf("negative-stride probe %d should hit", i)
		}
	}
}

func TestNegativeStrideUnderflowStops(t *testing.T) {
	s := newSet(t, 1, 4)
	// Stream walking backward from word 32 with stride -16: prefetches
	// words 16, 0, then must stop instead of wrapping.
	s.AllocateStrided(32, -16)
	if n := s.bufs[0].count; n != 2 {
		t.Errorf("FIFO holds %d entries, want 2 (16 and 0)", n)
	}
}

func TestZeroStrideAllocationIgnored(t *testing.T) {
	s := newSet(t, 1, 2)
	s.AllocateStrided(100, 0)
	if active(s) != 0 {
		t.Error("zero-stride allocation should be dropped")
	}
	if got := s.Stats().Allocations; got != 0 {
		t.Errorf("Allocations = %d, want 0", got)
	}
}

func TestLRUReallocation(t *testing.T) {
	s := newSet(t, 2, 2)
	// Allocate stream A at block 100, stream B at block 200.
	s.AllocateUnit(100)
	s.AllocateUnit(200)
	// Use stream A (making B the LRU).
	if !hit(s, 101) {
		t.Fatal("stream A should hit")
	}
	// New allocation must evict B, not A.
	s.AllocateUnit(300)
	if !hit(s, 102) {
		t.Error("stream A should survive reallocation")
	}
	if !hit(s, 301) {
		t.Error("new stream should be live")
	}
	if hit(s, 201) {
		t.Error("stream B should have been reallocated")
	}
}

func TestInactivePreferredOverLRU(t *testing.T) {
	s := newSet(t, 3, 2)
	s.AllocateUnit(100)
	s.AllocateUnit(200)
	if n := active(s); n != 2 {
		t.Fatalf("%d active buffers, want 2", n)
	}
	s.AllocateUnit(300)
	// All three must be live: the third allocation used the idle buffer.
	for _, blk := range []mem.Addr{101, 201, 301} {
		if !hit(s, blk) {
			t.Errorf("block %d should hit; idle buffer not used", blk)
		}
	}
}

func TestMultiwayInterleavedStreams(t *testing.T) {
	// Two interleaved unit-stride streams need two buffers.
	s := newSet(t, 2, 2)
	s.AllocateUnit(1000)
	s.AllocateUnit(2000)
	for i := mem.Addr(1); i <= 50; i++ {
		if !hit(s, 1000+i) {
			t.Fatalf("stream 1 probe %d missed", i)
		}
		if !hit(s, 2000+i) {
			t.Fatalf("stream 2 probe %d missed", i)
		}
	}
	if got := s.Stats().HitRate(); got != 1.0 {
		t.Errorf("hit rate = %v, want 1.0", got)
	}
}

func TestSingleBufferThrashesOnInterleave(t *testing.T) {
	// With one buffer, interleaved streams evict each other: the classic
	// motivation for multi-way streams.
	s := newSet(t, 1, 2)
	hits := 0
	for i := mem.Addr(1); i <= 20; i++ {
		if hit(s, 1000+i) {
			hits++
		} else {
			s.AllocateUnit(1000 + i)
		}
		if hit(s, 2000+i) {
			hits++
		} else {
			s.AllocateUnit(2000 + i)
		}
	}
	if hits != 0 {
		t.Errorf("interleave over one buffer hit %d times, want 0", hits)
	}
}

func TestInvalidateBlock(t *testing.T) {
	s := newSet(t, 1, 2)
	s.AllocateUnit(10) // holds 11, 12
	s.InvalidateBlock(11)
	if got := s.Stats().Invalidations; got != 1 {
		t.Errorf("Invalidations = %d, want 1", got)
	}
	// Head (11) is invalid; probe of 12 should still hit after the
	// hardware skips the dead entry.
	if !hit(s, 12) {
		t.Error("probe of 12 should hit after head invalidation")
	}
}

// TestInvalidateCountsWasted checks that an invalidated entry is
// wasted once, when it leaves the FIFO: every issued prefetch is
// either consumed by a hit or wasted.
func TestInvalidateCountsWasted(t *testing.T) {
	s := newSet(t, 1, 2)
	s.AllocateUnit(10) // holds 11, 12
	s.InvalidateBlock(12)
	s.Finish()
	st := s.Stats()
	if st.Hits+st.PrefetchesWasted != st.PrefetchesIssued {
		t.Errorf("hits %d + wasted %d != issued %d", st.Hits, st.PrefetchesWasted, st.PrefetchesIssued)
	}
}

func TestWastedPrefetchAccounting(t *testing.T) {
	s := newSet(t, 1, 2)
	s.AllocateUnit(10) // issues 2 prefetches
	s.AllocateUnit(50) // flushes both unused, issues 2 more
	st := s.Stats()
	if st.PrefetchesIssued != 4 {
		t.Errorf("PrefetchesIssued = %d, want 4", st.PrefetchesIssued)
	}
	if st.PrefetchesWasted != 2 {
		t.Errorf("PrefetchesWasted = %d, want 2", st.PrefetchesWasted)
	}
}

func TestFinishFlushesInFlight(t *testing.T) {
	s := newSet(t, 2, 2)
	s.AllocateUnit(10)
	hit(s, 11)
	s.Finish()
	st := s.Stats()
	// After one hit the FIFO refilled to depth 2; both are in flight.
	if st.PrefetchesWasted != 2 {
		t.Errorf("PrefetchesWasted = %d, want 2", st.PrefetchesWasted)
	}
	if st.Lengths.TotalHits() != 1 {
		t.Errorf("length dist hits = %d, want 1", st.Lengths.TotalHits())
	}
}

func TestPendingHitLatency(t *testing.T) {
	g := geom(t)
	s, err := NewSet(g, Config{Streams: 1, Depth: 2, Latency: 100})
	if err != nil {
		t.Fatal(err)
	}
	hit(s, 10)
	s.AllocateUnit(10)
	// Immediately probing the prefetched block: a hit, but pending.
	if !hit(s, 11) {
		t.Fatal("probe should hit")
	}
	st := s.Stats()
	if st.PendingHits != 1 {
		t.Errorf("PendingHits = %d, want 1", st.PendingHits)
	}
	// Let "time" (references) pass beyond the latency.
	for i := 0; i < 200; i++ {
		hit(s, 999999) // misses that advance the clock
	}
	if !hit(s, 12) {
		t.Fatal("probe of 12 should hit")
	}
	if got := s.Stats().PendingHits; got != 1 {
		t.Errorf("PendingHits = %d, want still 1 (data arrived)", got)
	}
}

func TestLengthDistBuckets(t *testing.T) {
	cases := []struct {
		length uint64
		bucket int
	}{
		{1, 0}, {5, 0}, {6, 1}, {10, 1}, {11, 2}, {15, 2},
		{16, 3}, {20, 3}, {21, 4}, {1000, 4},
	}
	for _, c := range cases {
		if got := bucketOf(c.length); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.length, got, c.bucket)
		}
	}
}

func TestLengthDistPercent(t *testing.T) {
	var d LengthDist
	d.add(3)  // 3 hits in bucket 0
	d.add(25) // 25 hits in bucket 4
	d.add(0)  // ignored
	if d.TotalHits() != 28 {
		t.Fatalf("TotalHits = %d, want 28", d.TotalHits())
	}
	p := d.Percent()
	if p[0] < 10.5 || p[0] > 10.8 {
		t.Errorf("bucket 0 share = %v, want ~10.7", p[0])
	}
	if p[4] < 89 || p[4] > 89.5 {
		t.Errorf("bucket 4 share = %v, want ~89.3", p[4])
	}
	var empty LengthDist
	if p := empty.Percent(); p != [5]float64{} {
		t.Errorf("empty Percent = %v, want zeros", p)
	}
}

func TestLengthDistRecordedOnRealloc(t *testing.T) {
	s := newSet(t, 1, 2)
	s.AllocateUnit(10)
	for blk := mem.Addr(11); blk <= 17; blk++ { // 7 hits
		if !hit(s, blk) {
			t.Fatalf("probe %d should hit", blk)
		}
	}
	s.AllocateUnit(100) // terminates the 7-hit stream
	d := s.Stats().Lengths
	if d.Buckets[1] != 7 {
		t.Errorf("bucket 6-10 hits = %d, want 7", d.Buckets[1])
	}
	if d.Streams[1] != 1 {
		t.Errorf("bucket 6-10 streams = %d, want 1", d.Streams[1])
	}
}

func TestStatsHitRate(t *testing.T) {
	var st Stats
	if st.HitRate() != 0 {
		t.Error("empty stats should have zero hit rate")
	}
	st = Stats{Probes: 4, Hits: 3}
	if st.HitRate() != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", st.HitRate())
	}
}

func TestBucketLabels(t *testing.T) {
	want := [5]string{"1-5", "6-10", "11-15", "16-20", ">20"}
	if got := BucketLabels(); got != want {
		t.Errorf("BucketLabels = %v, want %v", got, want)
	}
}

// Property: for any depth and any run of sequential blocks, a single
// unit stream hits on every block after allocation, and issued
// prefetches equal hits + in-flight entries.
func TestUnitStreamProperty(t *testing.T) {
	f := func(depthRaw uint8, runRaw uint8, baseRaw uint16) bool {
		depth := int(depthRaw%6) + 1
		run := int(runRaw%64) + 1
		base := mem.Addr(baseRaw)
		s, err := NewSet(mem.DefaultGeometry(), Config{Streams: 1, Depth: depth})
		if err != nil {
			return false
		}
		s.AllocateUnit(base)
		for i := 1; i <= run; i++ {
			if !hit(s, base+mem.Addr(i)) {
				return false
			}
		}
		s.Finish()
		st := s.Stats()
		return st.PrefetchesIssued == st.Hits+st.PrefetchesWasted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the FIFO never exceeds its depth.
func TestDepthInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		s, err := NewSet(mem.DefaultGeometry(), Config{Streams: 2, Depth: 3})
		if err != nil {
			return false
		}
		for _, op := range ops {
			blk := mem.Addr(op % 512)
			if !hit(s, blk) {
				s.AllocateUnit(blk)
			}
			for _, b := range s.bufs {
				if b.count > 3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: probes = hits + misses under arbitrary interleaving.
func TestProbeAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		s, err := NewSet(mem.DefaultGeometry(), Config{Streams: 4, Depth: 2})
		if err != nil {
			return false
		}
		for _, op := range ops {
			blk := mem.Addr(op % 128)
			if !hit(s, blk) {
				s.AllocateUnit(blk)
			}
		}
		st := s.Stats()
		return st.Probes == st.Hits+st.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReallocString(t *testing.T) {
	if ReallocLRU.String() != "LRU" || ReallocFIFO.String() != "FIFO" {
		t.Error("Realloc names wrong")
	}
}

func TestFIFOReallocationIgnoresUse(t *testing.T) {
	s, err := NewSet(mem.DefaultGeometry(), Config{Streams: 2, Depth: 2, Realloc: ReallocFIFO})
	if err != nil {
		t.Fatal(err)
	}
	s.AllocateUnit(100) // stream A, allocated first
	s.AllocateUnit(200) // stream B
	if !hit(s, 101) {   // use A: would save it under LRU
		t.Fatal("stream A should hit")
	}
	s.AllocateUnit(300) // FIFO must evict A (oldest allocation)
	if hit(s, 102) {
		t.Error("stream A should have been reallocated under FIFO")
	}
	if !hit(s, 201) {
		t.Error("stream B should survive under FIFO")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Probes: 10, Hits: 7, Misses: 3, Allocations: 2,
		PrefetchesIssued: 9, PrefetchesWasted: 2, PendingHits: 1, Invalidations: 1}
	a.Lengths.add(3)
	b := Stats{Probes: 5, Hits: 2, Misses: 3, Allocations: 1, PrefetchesIssued: 4}
	b.Lengths.add(25)
	sum := a.Add(b)
	if sum.Probes != 15 || sum.Hits != 9 || sum.Misses != 6 {
		t.Errorf("Add counters wrong: %+v", sum)
	}
	if sum.Lengths.Buckets[0] != 3 || sum.Lengths.Buckets[4] != 25 {
		t.Errorf("Add length buckets wrong: %+v", sum.Lengths)
	}
	// Add must not mutate its receiver's original.
	if a.Probes != 10 {
		t.Error("Add mutated operand")
	}
}

func TestOnPrefetchHook(t *testing.T) {
	var issued []mem.Addr
	s, err := NewSet(mem.DefaultGeometry(), Config{Streams: 1, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.OnPrefetch(func(blk mem.Addr) { issued = append(issued, blk) })
	s.AllocateUnit(10)
	if len(issued) != 2 || issued[0] != 11 || issued[1] != 12 {
		t.Fatalf("hook saw %v, want [11 12]", issued)
	}
	hit(s, 11) // consume head, refill
	if len(issued) != 3 || issued[2] != 13 {
		t.Errorf("hook after refill saw %v, want [... 13]", issued)
	}
}
