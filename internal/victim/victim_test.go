package victim

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero entries should be rejected")
	}
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 4 {
		t.Errorf("Size = %d, want 4", c.Size())
	}
}

func TestProbeMissOnEmpty(t *testing.T) {
	c, _ := New(4)
	if hit, _ := c.Probe(10); hit {
		t.Error("empty victim cache should miss")
	}
	if s := c.Stats(); s.Probes != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInsertThenProbe(t *testing.T) {
	c, _ := New(4)
	c.Insert(10, true)
	hit, dirty := c.Probe(10)
	if !hit || !dirty {
		t.Errorf("Probe = (%v, %v), want (true, true)", hit, dirty)
	}
	// The hit removed the entry (line swapped back into L1).
	if hit, _ := c.Probe(10); hit {
		t.Error("entry should be consumed by the hit")
	}
}

func TestCleanInsert(t *testing.T) {
	c, _ := New(4)
	c.Insert(10, false)
	hit, dirty := c.Probe(10)
	if !hit || dirty {
		t.Errorf("Probe = (%v, %v), want (true, false)", hit, dirty)
	}
}

func TestLRUDisplacementWritesBackDirty(t *testing.T) {
	c, _ := New(2)
	c.Insert(1, true)
	c.Insert(2, false)
	wb, ok := c.Insert(3, false) // displaces 1 (LRU, dirty)
	if !ok || wb != 1 {
		t.Errorf("Insert displaced (%d, %v), want (1, true)", wb, ok)
	}
	if got := c.Stats().WriteBacks; got != 1 {
		t.Errorf("WriteBacks = %d, want 1", got)
	}
	if hit, _ := c.Probe(1); hit {
		t.Error("displaced block should be gone")
	}
}

func TestCleanDisplacementNoWriteBack(t *testing.T) {
	c, _ := New(1)
	c.Insert(1, false)
	if _, ok := c.Insert(2, false); ok {
		t.Error("clean displacement must not request a write-back")
	}
}

func TestReinsertRefreshesAndMergesDirty(t *testing.T) {
	c, _ := New(2)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Insert(1, true) // refresh in place, now dirty; 2 stays
	if _, ok := c.Insert(3, false); ok {
		t.Error("displacing clean 2 (LRU) must not write back")
	}
	// 1 should still be resident and dirty.
	hit, dirty := c.Probe(1)
	if !hit || !dirty {
		t.Errorf("Probe(1) = (%v, %v), want (true, true)", hit, dirty)
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	s = Stats{Probes: 4, Hits: 1}
	if s.HitRate() != 0.25 {
		t.Errorf("HitRate = %v, want 0.25", s.HitRate())
	}
}

// Property: the victim cache retains the most recent N distinct
// inserted blocks (with no intervening probes).
func TestRetentionProperty(t *testing.T) {
	f := func(blocksRaw []uint16) bool {
		const n = 4
		c, err := New(n)
		if err != nil {
			return false
		}
		// De-duplicate consecutive repeats to keep the invariant simple.
		var blocks []uint64
		seen := map[uint64]bool{}
		for _, b := range blocksRaw {
			if !seen[uint64(b)] {
				seen[uint64(b)] = true
				blocks = append(blocks, uint64(b))
			}
		}
		for _, b := range blocks {
			c.Insert(b, false)
		}
		start := len(blocks) - n
		if start < 0 {
			start = 0
		}
		for _, b := range blocks[start:] {
			if hit, _ := c.Probe(b); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
