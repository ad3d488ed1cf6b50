// Package victim implements Jouppi's victim cache: a small fully-
// associative buffer that holds the last few lines evicted from a
// primary cache. The paper sidesteps victim buffers by using 4-way
// associative L1s ("In a direct-mapped cache, Jouppi's victim buffers
// may also be needed"), but a direct-mapped configuration of this
// repository's memory system wants them, so they are provided and
// exercised by the ablation benches.
//
// On an L1 miss the victim cache is probed before the streams and
// main memory; a hit swaps the line back into the L1 without any
// off-chip traffic. On an L1 eviction the displaced line (clean or
// dirty) is installed here, displacing the LRU victim entry; a dirty
// displaced entry must then be written back by the caller.
package victim

import (
	"fmt"
)

// entry is one fully-associative victim line.
type entry struct {
	block   uint64
	dirty   bool
	valid   bool
	lastUse uint64
}

// Stats counts victim cache behaviour.
type Stats struct {
	// Probes is the number of L1 misses presented.
	Probes uint64
	// Hits counts probes that found the block (saved memory accesses).
	Hits uint64
	// Inserts counts evicted L1 lines installed.
	Inserts uint64
	// WriteBacks counts dirty lines displaced out of the victim cache.
	WriteBacks uint64
}

// HitRate returns Hits/Probes, or 0 with no probes.
func (s Stats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Probes)
}

// Cache is a small fully-associative victim buffer. Jouppi found one
// to four entries recover most direct-mapped conflict misses; eight is
// a generous default. It is not safe for concurrent use.
//
//simlint:state
type Cache struct {
	entries []entry
	clock   uint64
	stats   *Stats // where the buffer counts; see CountInto
	own     Stats  // what a buffer built alone counts into
}

// New builds a victim cache with n entries.
func New(n int) (*Cache, error) {
	if n < 1 {
		return nil, fmt.Errorf("victim: need at least one entry, got %d", n)
	}
	c := &Cache{entries: make([]entry, n)}
	c.stats = &c.own
	return c, nil
}

// Size returns the number of entries.
func (c *Cache) Size() int { return len(c.entries) }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return *c.stats }

// CountInto redirects counting to *st from now on without disturbing
// the entries (see cache.Cache.CountInto).
func (c *Cache) CountInto(st *Stats) { c.stats = st }

// Clone returns a deep copy of the victim cache, counting into a copy
// of the statistics of its own; the clone evolves independently of
// the original.
//
//simlint:statefull clone
func (c *Cache) Clone() *Cache {
	n := *c
	n.own, n.stats = *c.stats, &n.own
	n.entries = append([]entry(nil), c.entries...)
	return &n
}

// Probe looks up a block after an L1 miss. On a hit the entry is
// removed (the line moves back into the L1) and its dirty state is
// returned so the L1 can re-mark it.
func (c *Cache) Probe(block uint64) (hit, dirty bool) {
	c.clock++
	c.stats.Probes++
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.block == block {
			c.stats.Hits++
			dirty = e.dirty
			e.valid = false
			return true, dirty
		}
	}
	return false, false
}

// Insert installs a line evicted from the L1. It returns the displaced
// dirty line's block, if any, which the caller must write back
// (writeBack is false when the displaced line was clean or the slot
// was free).
func (c *Cache) Insert(block uint64, dirty bool) (wbBlock uint64, writeBack bool) {
	c.clock++
	c.stats.Inserts++
	victim := -1
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.block == block {
			// Re-insert of a resident block (can happen when the same
			// line bounces): refresh in place.
			e.dirty = e.dirty || dirty
			e.lastUse = c.clock
			return 0, false
		}
		if !e.valid && victim == -1 {
			victim = i
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(c.entries); i++ {
			if c.entries[i].lastUse < c.entries[victim].lastUse {
				victim = i
			}
		}
		if v := &c.entries[victim]; v.valid && v.dirty {
			wbBlock, writeBack = v.block, true
			c.stats.WriteBacks++
		}
	}
	c.entries[victim] = entry{block: block, dirty: dirty, valid: true, lastUse: c.clock}
	return wbBlock, writeBack
}

// Invalidate removes a block (write-back coherence), reporting whether
// it was present and dirty.
func (c *Cache) Invalidate(block uint64) (present, dirty bool) {
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.block == block {
			present, dirty = true, e.dirty
			e.valid = false
			e.dirty = false
			return present, dirty
		}
	}
	return false, false
}

// Flush empties the buffer, counting dirty entries as write-backs.
func (c *Cache) Flush() {
	for i := range c.entries {
		if c.entries[i].valid && c.entries[i].dirty {
			c.stats.WriteBacks++
		}
		c.entries[i] = entry{}
	}
}
