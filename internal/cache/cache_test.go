package cache

import (
	"testing"
	"testing/quick"
)

// small returns a tiny direct-mapped cache for deterministic tests:
// 4 sets of 1 way, 64-byte blocks.
func small(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{
		Name: "t", SizeBytes: 256, Assoc: 1, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 100, Assoc: 1, BlockBytes: 64}, // size not pow2
		{SizeBytes: 256, Assoc: 3, BlockBytes: 64}, // assoc not pow2
		{SizeBytes: 256, Assoc: 1, BlockBytes: 48}, // block not pow2
		{SizeBytes: 64, Assoc: 4, BlockBytes: 64},  // too small
		{SizeBytes: 256, Assoc: 1, BlockBytes: 0},  // zero block
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v should be rejected", i, cfg)
		}
	}
	if _, err := New(Config{SizeBytes: 65536, Assoc: 4, BlockBytes: 64}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if r := c.Read(0x100); r.Hit {
		t.Error("first access should miss")
	}
	if r := c.Read(0x100); !r.Hit {
		t.Error("second access should hit")
	}
	if r := c.Read(0x13f); !r.Hit {
		t.Error("same-block access should hit")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 3 accesses, 2 hits, 1 miss", s)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := small(t)
	// 4 sets * 64B blocks: addresses 0 and 256 collide in set 0.
	c.Read(0)
	c.Read(256)
	if r := c.Read(0); r.Hit {
		t.Error("conflicting block should have evicted 0")
	}
}

func TestLRUOrder(t *testing.T) {
	c, err := New(Config{SizeBytes: 2 * 64, Assoc: 2, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	// One set, two ways. Fill with A, B; touch A; insert C: B evicted.
	a, b, cc := uint64(0), uint64(64), uint64(128)
	c.Read(a)
	c.Read(b)
	c.Read(a) // A most recent
	c.Read(cc)
	if !c.Contains(a) {
		t.Error("A should survive (recently used)")
	}
	if c.Contains(b) {
		t.Error("B should be evicted (LRU)")
	}
}

func TestFIFOOrder(t *testing.T) {
	c, err := New(Config{SizeBytes: 2 * 64, Assoc: 2, BlockBytes: 64,
		Replacement: FIFO, Write: WriteBack, Alloc: WriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	a, b, cc := uint64(0), uint64(64), uint64(128)
	c.Read(a)
	c.Read(b)
	c.Read(a) // touching A must NOT save it under FIFO
	c.Read(cc)
	if c.Contains(a) {
		t.Error("A should be evicted (oldest fill) despite recent use")
	}
	if !c.Contains(b) {
		t.Error("B should survive under FIFO")
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	mk := func() *Cache {
		c, err := New(Config{SizeBytes: 4 * 64, Assoc: 4, BlockBytes: 64,
			Replacement: Random, Write: WriteBack, Alloc: WriteAllocate, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	run := func(c *Cache) Stats {
		for i := 0; i < 1000; i++ {
			c.Read(uint64(i%17) * 64)
		}
		return c.Stats()
	}
	s1, s2 := run(mk()), run(mk())
	if s1 != s2 {
		t.Errorf("same seed gave different stats: %+v vs %+v", s1, s2)
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := small(t)
	c.Write(0) // dirty block 0 in set 0
	r := c.Read(256)
	if !r.WroteBack {
		t.Fatal("evicting dirty block should write back")
	}
	if r.VictimBlock != 0 {
		t.Errorf("VictimBlock = %#x, want 0", r.VictimBlock)
	}
	if got := c.Stats().WriteBacks; got != 1 {
		t.Errorf("WriteBacks = %d, want 1", got)
	}
}

func TestVictimBlockReconstruction(t *testing.T) {
	c := small(t)
	// Block at byte 0x1240 -> block 0x49, set 1, tag 0x12.
	c.Write(0x1240)
	r := c.Read(0x2240) // same set 1
	if !r.WroteBack {
		t.Fatal("should evict dirty victim")
	}
	if r.VictimBlock != 0x49 {
		t.Errorf("VictimBlock = %#x, want 0x49", r.VictimBlock)
	}
}

func TestCleanEvictionNoWriteBack(t *testing.T) {
	c := small(t)
	c.Read(0)
	r := c.Read(256)
	if r.WroteBack {
		t.Error("clean eviction must not write back")
	}
}

func TestWriteThrough(t *testing.T) {
	c, err := New(Config{SizeBytes: 256, Assoc: 1, BlockBytes: 64,
		Replacement: LRU, Write: WriteThrough, Alloc: WriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	c.Write(0) // miss + fill + through
	c.Write(0) // hit + through
	if got := c.Stats().WriteBacks; got != 2 {
		t.Errorf("WriteBacks = %d, want 2 (every store propagates)", got)
	}
	// Evicting should not add a write-back: nothing is dirty.
	c.Read(256)
	if got := c.Stats().WriteBacks; got != 2 {
		t.Errorf("WriteBacks after eviction = %d, want 2", got)
	}
}

func TestNoWriteAllocate(t *testing.T) {
	c, err := New(Config{SizeBytes: 256, Assoc: 1, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: NoWriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	r := c.Write(0)
	if r.Filled {
		t.Error("store miss must not fill under no-write-allocate")
	}
	if c.Contains(0) {
		t.Error("block must not be resident")
	}
	if got := c.Stats().WriteBacks; got != 1 {
		t.Errorf("WriteBacks = %d, want 1 (store forwarded)", got)
	}
}

func TestSetSampling(t *testing.T) {
	c, err := New(Config{SizeBytes: 16 * 64, Assoc: 1, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate, SampleEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 16 sets; only sets 0, 4, 8, 12 are simulated.
	for set := uint64(0); set < 16; set++ {
		r := c.Read(set * 64)
		if set%4 == 0 && !r.Sampled {
			t.Errorf("set %d should be sampled", set)
		}
		if set%4 != 0 && r.Sampled {
			t.Errorf("set %d should be skipped", set)
		}
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Unsampled != 12 {
		t.Errorf("stats = %+v, want 4 sampled / 12 unsampled", s)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Write(0)
	present, dirty := c.Invalidate(0)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Contains(0) {
		t.Error("block still resident after invalidate")
	}
	present, _ = c.Invalidate(0)
	if present {
		t.Error("second invalidate should find nothing")
	}
}

func TestFlush(t *testing.T) {
	c := small(t)
	c.Write(0)
	c.Read(64)
	c.Flush()
	if c.Contains(0) || c.Contains(64) {
		t.Error("flush should empty the cache")
	}
	if got := c.Stats().WriteBacks; got != 1 {
		t.Errorf("WriteBacks = %d, want 1 (one dirty line)", got)
	}
}

// TestCountInto pins the counter redirection a memory system builds
// on: once pointed at a value the cache counts there and only there,
// its contents are untouched, and a clone counts into a copy of its
// own.
func TestCountInto(t *testing.T) {
	c := small(t)
	c.Read(0)
	var st Stats
	c.CountInto(&st)
	if s := c.Stats(); s.Accesses != 0 {
		t.Errorf("redirected counts start from the new value, got %+v", s)
	}
	if !c.Contains(0) {
		t.Error("CountInto must not disturb contents")
	}
	c.Read(0)
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("counted into %+v, want one hit", st)
	}
	n := c.Clone()
	n.Read(64)
	c.Read(0)
	if st.Hits != 2 || st.Misses != 0 {
		t.Errorf("clone counted into its original's value: %+v", st)
	}
	if s := n.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("clone stats = %+v, want the copied hit plus its own miss", s)
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 || s.MissRate() != 0 {
		t.Error("empty stats should have zero rates")
	}
	s = Stats{Accesses: 10, Hits: 7, Misses: 3}
	if s.HitRate() != 0.7 {
		t.Errorf("HitRate = %v, want 0.7", s.HitRate())
	}
	if s.MissRate() != 0.3 {
		t.Errorf("MissRate = %v, want 0.3", s.MissRate())
	}
}

// Property: hits + misses always equals sampled accesses, and a repeat
// access to the same address immediately after is always a hit.
func TestAccountingInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(Config{SizeBytes: 1024, Assoc: 2, BlockBytes: 64,
			Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Read(uint64(a))
			if !c.Contains(uint64(a)) {
				return false
			}
			if r := c.Read(uint64(a)); !r.Hit {
				return false
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a fully-associative LRU cache of N blocks retains the last
// N distinct blocks touched.
func TestLRURetention(t *testing.T) {
	const ways = 8
	c, err := New(Config{SizeBytes: ways * 64, Assoc: ways, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Read(uint64(i) * 64)
	}
	for i := 100 - ways; i < 100; i++ {
		if !c.Contains(uint64(i) * 64) {
			t.Errorf("block %d should be retained", i)
		}
	}
	if c.Contains(uint64(100-ways-1) * 64) {
		t.Error("older block should be evicted")
	}
}

// Property: working sets that fit are fully retained whatever the order
// of a second pass (no capacity or conflict misses on re-walk).
func TestFitWorkingSetAllHit(t *testing.T) {
	c, err := New(Config{SizeBytes: 4096, Assoc: 4, BlockBytes: 64,
		Replacement: LRU, Write: WriteBack, Alloc: WriteAllocate})
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 4096; a += 64 {
		c.Read(a)
	}
	c.CountInto(new(Stats))
	for a := uint64(4096) - 64; ; a -= 64 {
		c.Read(a)
		if a == 0 {
			break
		}
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Errorf("re-walk of resident set missed %d times", s.Misses)
	}
}
