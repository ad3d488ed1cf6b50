// Package stream implements Jouppi-style stream buffers as extended by
// the paper: FIFO prefetch buffers of configurable depth, grouped into
// a multi-way set with LRU reallocation, supporting both unit-stride
// prefetching (successive cache blocks) and the paper's Section 7
// extension to arbitrary constant word strides (the incrementer of
// Figure 2 replaced by a general adder).
//
// The model is structural: entries carry block tags and the reference
// clock of their issue. An optional latency, measured in processor
// references, models the delay between issuing a prefetch and its data
// arriving; a probe that matches a still-pending entry counts as a hit
// (the paper's accounting, discussed in its Section 8 caveat) but is
// also tallied separately as a PendingHit.
//
// A Set keeps its entries flat, as the cache keeps its ways: one
// array of streams × depth block tags, with the all-ones tag in every
// slot that holds nothing comparable (empty, consumed or invalidated by
// a write-back), so a probe and a write-back invalidation are each one
// compare loop.
package stream

import (
	"fmt"

	"streamsim/internal/mem"
)

// Set is a group of stream buffers probed in parallel, with LRU
// selection of the stream to reallocate (the paper's policy).
//
// blocks holds every buffer's FIFO ring, buffer i's at
// blocks[i*depth:(i+1)*depth], and issueAt the clock each entry was
// issued at. heads caches each buffer's head tag in one contiguous
// array, the software analogue of the hardware's parallel comparators,
// so a probe is a tight compare loop, and rank orders the buffers for
// reallocation, so the victim is the first smallest entry of one
// array. Every slot and head that holds nothing comparable holds none:
// an idle or empty buffer's head never matches and costs the probe
// nothing more. Only a buffer whose head entry a write-back invalidated
// is stale: the next probe that reaches it drops the invalidated
// entries at its head and exposes the next.
type Set struct {
	shift   uint // log2(words per block): a word address's block is word >> shift
	depth   int
	latency uint64
	realloc Realloc
	clock   uint64
	heads   []mem.Addr // each buffer's head tag, or none
	blocks  []mem.Addr // streams × depth FIFO entries, or none
	issueAt []uint64   // the clock each entry of blocks was issued at
	// rank is 0 while a buffer is idle, else 1 + the clock of its last
	// use (ReallocLRU) or of its allocation (ReallocFIFO).
	rank       []uint64
	bufs       []buffer
	stale      int // buffers whose head a write-back invalidated
	onPrefetch func(blk mem.Addr)
	stats      *Stats // where the set counts; see CountInto
	own        Stats  // what a set built alone counts into
}

// buffer is one stream buffer's FIFO pointers and address-generation
// state; its entries are in the set's flat arrays.
type buffer struct {
	head  int // ring offset of the oldest entry
	count int // entries in the FIFO, invalidated ones included

	nextWord  mem.Addr // word address the next prefetch derives from
	stride    int64    // word stride; words per block for unit streams
	exhausted bool     // address generator walked off the address space
	stale     bool     // the head entry was invalidated and not yet dropped
	hits      uint64   // hits since the stream was allocated
}

// none is the tag of a slot or head that holds nothing comparable.
// Block numbers are byte addresses shifted down, so the all-ones value
// never names a block, and a probe or invalidation of a real block
// never matches it.
const none = ^mem.Addr(0)

// LengthDist is the paper's Table 3 histogram: hits attributed to the
// length of the stream (number of hits served between allocation and
// reallocation) they belonged to, in buckets 1-5, 6-10, 11-15, 16-20
// and >20.
type LengthDist struct {
	// Buckets holds hits attributed per bucket.
	Buckets [5]uint64
	// Streams counts terminated streams per bucket.
	Streams [5]uint64
}

// bucketOf maps a stream length to its Table 3 bucket index.
func bucketOf(length uint64) int {
	switch {
	case length <= 5:
		return 0
	case length <= 10:
		return 1
	case length <= 15:
		return 2
	case length <= 20:
		return 3
	default:
		return 4
	}
}

// add records a terminated stream that served length hits.
func (d *LengthDist) add(length uint64) {
	if length == 0 {
		return
	}
	i := bucketOf(length)
	d.Buckets[i] += length
	d.Streams[i]++
}

// TotalHits returns the sum over buckets.
func (d *LengthDist) TotalHits() uint64 {
	var t uint64
	for _, v := range d.Buckets {
		t += v
	}
	return t
}

// Percent returns each bucket's share of hits in percent (0 slice when
// no hits were recorded).
func (d *LengthDist) Percent() [5]float64 {
	var out [5]float64
	t := d.TotalHits()
	if t == 0 {
		return out
	}
	for i, v := range d.Buckets {
		out[i] = 100 * float64(v) / float64(t)
	}
	return out
}

// BucketLabels names the Table 3 buckets in order.
func BucketLabels() [5]string {
	return [5]string{"1-5", "6-10", "11-15", "16-20", ">20"}
}

// Stats accumulates the observable behaviour of a stream set.
type Stats struct {
	// Probes is the number of on-chip misses presented to the set.
	Probes uint64
	// Hits is the number of probes that matched a stream head.
	Hits uint64
	// PendingHits is the subset of Hits whose data had not yet returned
	// from memory (see the paper's Section 8 caveat).
	PendingHits uint64
	// Misses is Probes - Hits.
	Misses uint64
	// Allocations counts stream (re)allocations.
	Allocations uint64
	// PrefetchesIssued counts blocks requested from memory.
	PrefetchesIssued uint64
	// PrefetchesWasted counts fetched blocks discarded unused, whether
	// by reallocation flushes or by write-back invalidation.
	PrefetchesWasted uint64
	// Invalidations counts entries cleared by write-backs.
	Invalidations uint64
	// Lengths is the Table 3 stream-length distribution.
	Lengths LengthDist
}

// Add returns the element-wise sum of two Stats (used to merge
// partitioned instruction and data stream sets).
func (s Stats) Add(o Stats) Stats {
	s.Probes += o.Probes
	s.Hits += o.Hits
	s.PendingHits += o.PendingHits
	s.Misses += o.Misses
	s.Allocations += o.Allocations
	s.PrefetchesIssued += o.PrefetchesIssued
	s.PrefetchesWasted += o.PrefetchesWasted
	s.Invalidations += o.Invalidations
	for i := range s.Lengths.Buckets {
		s.Lengths.Buckets[i] += o.Lengths.Buckets[i]
		s.Lengths.Streams[i] += o.Lengths.Streams[i]
	}
	return s
}

// HitRate returns Hits/Probes, or 0 with no probes.
func (s Stats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Probes)
}

// Realloc selects which stream is sacrificed when a new one must be
// allocated and no buffer is idle.
type Realloc uint8

// Reallocation policies.
const (
	// ReallocLRU replaces the least recently used stream (the paper's
	// policy).
	ReallocLRU Realloc = iota
	// ReallocFIFO replaces the oldest-allocated stream regardless of
	// use (kept for the ablation benches).
	ReallocFIFO
)

// String names the policy.
func (r Realloc) String() string {
	if r == ReallocFIFO {
		return "FIFO"
	}
	return "LRU"
}

// Config describes a stream set.
type Config struct {
	// Streams is the number of buffers (the paper sweeps 1-10).
	Streams int
	// Depth is the FIFO depth per buffer (the paper fixes 2).
	Depth int
	// Latency, in references, is how long a prefetch takes to return.
	// Zero means data is available immediately.
	Latency uint64
	// Realloc selects the victim policy (default LRU, as the paper
	// assumes).
	Realloc Realloc
}

// Validate checks cfg without allocating anything: at least one
// stream, each at least one entry deep. NewSet calls it first.
func (cfg Config) Validate() error {
	if cfg.Streams < 1 {
		return fmt.Errorf("stream: need at least one stream, got %d", cfg.Streams)
	}
	if cfg.Depth < 1 {
		return fmt.Errorf("stream: depth %d < 1", cfg.Depth)
	}
	return nil
}

// NewSet builds a stream set.
func NewSet(geom mem.Geometry, cfg Config) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Set{
		shift: geom.BlockShift() - geom.WordShift(),
		depth: cfg.Depth, latency: cfg.Latency, realloc: cfg.Realloc,
		heads:   make([]mem.Addr, cfg.Streams),
		blocks:  make([]mem.Addr, cfg.Streams*cfg.Depth),
		issueAt: make([]uint64, cfg.Streams*cfg.Depth),
		rank:    make([]uint64, cfg.Streams),
		bufs:    make([]buffer, cfg.Streams),
	}
	s.stats = &s.own
	fillNone(s.heads)
	fillNone(s.blocks)
	return s, nil
}

func fillNone(tags []mem.Addr) {
	for i := range tags {
		tags[i] = none
	}
}

// OnPrefetch sets fn to observe every prefetch the set issues from now
// on, by block number (memory-traffic analyses use it; nil, the
// default, costs nothing).
func (s *Set) OnPrefetch(fn func(blk mem.Addr)) { s.onPrefetch = fn }

// Stats returns a copy of the accumulated statistics.
func (s *Set) Stats() Stats { return *s.stats }

// CountInto redirects counting to *st from now on without disturbing
// stream contents (see cache.Cache.CountInto).
func (s *Set) CountInto(st *Stats) { s.stats = st }

// Clone returns a deep copy of the set — every buffer's FIFO and
// address-generation state, the cached head tags, the reference clock
// and a copy of the statistics it counts into. The clone evolves and
// counts independently of the original. The OnPrefetch hook, if any,
// is shared with the original: callers that clone for concurrent
// replay must not set one.
func (s *Set) Clone() *Set {
	n := *s
	n.own, n.stats = *s.stats, &n.own
	n.heads = append([]mem.Addr(nil), s.heads...)
	n.blocks = append([]mem.Addr(nil), s.blocks...)
	n.issueAt = append([]uint64(nil), s.issueAt...)
	n.rank = append([]uint64(nil), s.rank...)
	n.bufs = append([]buffer(nil), s.bufs...)
	return &n
}

// ProbeResult reports what one probe did, so callers layering timing
// models on top (core.Outcome) can account incrementally instead of
// diffing full Stats copies around every access.
type ProbeResult struct {
	// Hit reports whether the block matched a stream head.
	Hit bool
	// Pending is set on a hit whose prefetch had not yet returned.
	Pending bool
	// Issued counts refill prefetches triggered by the hit.
	Issued uint64
}

// ProbeOutcome presents an on-chip miss for block blk (a block number)
// and reports what it did. On a hit the matching stream shifts and
// refills; the caller moves the block into the primary cache. The
// statistics are already updated when it returns.
func (s *Set) ProbeOutcome(blk mem.Addr) ProbeResult {
	s.clock++
	s.stats.Probes++
	i := -1
	if s.stale == 0 {
		for j, h := range s.heads {
			if h == blk {
				i = j
				break
			}
		}
	} else {
		i = s.matchStale(blk)
	}
	if i < 0 {
		s.stats.Misses++
		return ProbeResult{}
	}
	// Pop the head, then refill to depth: an invalidated entry the pop
	// exposes still holds its slot through the refill, and leaves, as
	// wasted, when a later probe reaches this buffer.
	b := &s.bufs[i]
	k := i*s.depth + b.head
	ready := s.clock-s.issueAt[k] >= s.latency
	s.blocks[k] = none
	if b.head++; b.head == s.depth {
		b.head = 0
	}
	b.count--
	b.hits++
	if s.realloc == ReallocLRU {
		s.rank[i] = s.clock + 1
	}
	issued := s.refill(i)
	s.syncHead(i)
	s.stats.Hits++
	if !ready {
		s.stats.PendingHits++
	}
	s.stats.PrefetchesIssued += issued
	return ProbeResult{Hit: true, Pending: !ready, Issued: issued}
}

// matchStale is the probe's compare loop while some heads are stale:
// each stale buffer the scan reaches first drops the invalidated
// entries at its head, counting them wasted, and exposes its next
// entry. It returns the first buffer whose head is blk, or -1; stale
// buffers past that one keep their entries until a later probe.
func (s *Set) matchStale(blk mem.Addr) int {
	for i := range s.heads {
		if b := &s.bufs[i]; b.stale {
			b.stale = false
			s.stale--
			base := i * s.depth
			for b.count > 0 && s.blocks[base+b.head] == none {
				if b.head++; b.head == s.depth {
					b.head = 0
				}
				b.count--
				s.stats.PrefetchesWasted++
			}
			s.syncHead(i)
		}
		if s.heads[i] == blk {
			return i
		}
	}
	return -1
}

// syncHead caches buffer i's head tag after its FIFO moved, and marks
// the buffer stale when its head entry was invalidated.
func (s *Set) syncHead(i int) {
	b := &s.bufs[i]
	h := none
	if b.count > 0 {
		h = s.blocks[i*s.depth+b.head]
		if h == none {
			b.stale = true
			s.stale++
		}
	}
	s.heads[i] = h
}

// refill issues prefetches into buffer i until its FIFO is full or its
// address generator is exhausted (a negative-stride stream that walked
// off address 0), and returns how many it issued.
func (s *Set) refill(i int) (issued uint64) {
	b := &s.bufs[i]
	for b.count < s.depth && !b.exhausted {
		blk := b.nextWord >> s.shift
		tail := b.head + b.count
		if tail >= s.depth {
			tail -= s.depth
		}
		k := i*s.depth + tail
		s.blocks[k], s.issueAt[k] = blk, s.clock
		b.count++
		issued++
		if s.onPrefetch != nil {
			s.onPrefetch(blk)
		}
		if next := int64(b.nextWord) + b.stride; next < 0 {
			b.exhausted = true
		} else {
			b.nextWord = mem.Addr(next)
		}
	}
	return issued
}

// AllocateUnit reallocates the LRU stream as a unit-stride stream
// beginning one block past missBlock (the missed block itself arrives
// via the fast path). It returns the number of prefetches issued.
func (s *Set) AllocateUnit(missBlock mem.Addr) uint64 {
	return s.allocate((missBlock+1)<<s.shift, 1<<s.shift)
}

// AllocateStrided reallocates the LRU stream with an arbitrary word
// stride, starting from lastWord+stride (the reference at lastWord has
// already been serviced by the fast path). It returns the number of
// prefetches issued.
func (s *Set) AllocateStrided(lastWord mem.Addr, stride int64) uint64 {
	start := int64(lastWord) + stride
	if start < 0 || stride == 0 {
		return 0 // degenerate; nothing useful to prefetch
	}
	return s.allocate(mem.Addr(start), stride)
}

// allocate flushes the victim buffer per the reallocation policy
// (preferring idle buffers) and starts a stream in it, returning the
// number of prefetches issued for the new stream. A flushed entry,
// invalidated or not, was fetched and never used.
func (s *Set) allocate(startWord mem.Addr, stride int64) uint64 {
	i := s.victim()
	b := &s.bufs[i]
	if s.rank[i] != 0 {
		s.stats.Lengths.add(b.hits)
		s.stats.PrefetchesWasted += uint64(b.count)
	}
	if b.stale {
		s.stale--
	}
	fillNone(s.blocks[i*s.depth : (i+1)*s.depth])
	*b = buffer{nextWord: startWord, stride: stride}
	s.rank[i] = s.clock + 1
	issued := s.refill(i)
	s.syncHead(i)
	s.stats.PrefetchesIssued += issued
	s.stats.Allocations++
	return issued
}

// victim returns the buffer to reallocate: the first idle one, else
// the least recently used (ReallocLRU) or allocated (ReallocFIFO), the
// first index on a tie. Two allocations can share one clock, so the
// tie-break is part of the results.
func (s *Set) victim() int {
	v := 0
	for i, r := range s.rank {
		if r < s.rank[v] {
			v = i
		}
	}
	return v
}

// InvalidateBlock implements write-back coherence: clear every stream
// entry holding blk. A cleared entry stays in its FIFO until a probe
// drops it at the head, a reallocation flushes it or Finish counts it,
// and that exit is where it counts as wasted, once.
func (s *Set) InvalidateBlock(blk mem.Addr) {
	for k, t := range s.blocks {
		if t != blk {
			continue
		}
		s.blocks[k] = none
		s.stats.Invalidations++
		if i := k / s.depth; s.heads[i] == blk {
			s.heads[i] = none
			s.bufs[i].stale = true
			s.stale++
		}
	}
}

// Finish flushes accounting at end of simulation: in-flight prefetches
// never consumed count as wasted, and live stream lengths are recorded.
func (s *Set) Finish() {
	for i, r := range s.rank {
		if r != 0 {
			s.stats.PrefetchesWasted += uint64(s.bufs[i].count)
			s.stats.Lengths.add(s.bufs[i].hits)
		}
	}
}
