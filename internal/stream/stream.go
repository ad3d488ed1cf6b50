// Package stream implements Jouppi-style stream buffers as extended by
// the paper: FIFO prefetch buffers of configurable depth, grouped into
// a multi-way set with LRU reallocation, supporting both unit-stride
// prefetching (successive cache blocks) and the paper's Section 7
// extension to arbitrary constant word strides (the incrementer of
// Figure 2 replaced by a general adder).
//
// The model is structural: entries carry block tags, valid bits and an
// availability (data-returned) bit. An optional latency, measured in
// processor references, models the delay between issuing a prefetch and
// its data arriving; a probe that matches a still-pending entry counts
// as a hit (the paper's accounting, discussed in its Section 8 caveat)
// but is also tallied separately as a PendingHit.
package stream

import (
	"fmt"

	"streamsim/internal/mem"
)

// slot is one FIFO entry of a stream buffer.
type slot struct {
	block   mem.Addr // block-number tag
	valid   bool
	issueAt uint64 // reference clock when the prefetch was issued
}

// Buffer is a single stream buffer: a FIFO of prefetched blocks plus
// the address-generation state (next word address and word stride).
//
//simlint:state
type Buffer struct {
	geom       mem.Geometry
	depth      int
	onPrefetch func(blk mem.Addr)

	fifo  []slot
	head  int // index of the oldest entry
	count int // number of valid entries

	nextWord  mem.Addr // word address the next prefetch derives from
	stride    int64    // word stride; wordsPerBlock for unit streams
	active    bool
	exhausted bool // address generator walked off the address space

	hitsThisAllocation uint64
	lastUse            uint64
	allocAt            uint64
}

// NewBuffer returns an inactive stream buffer with the given FIFO
// depth. Depth must be at least 1; the paper fixes it at 2.
func NewBuffer(geom mem.Geometry, depth int) (*Buffer, error) {
	if depth < 1 {
		return nil, fmt.Errorf("stream: depth %d < 1", depth)
	}
	return &Buffer{geom: geom, depth: depth, fifo: make([]slot, depth)}, nil
}

// Active reports whether the buffer currently holds a stream.
func (b *Buffer) Active() bool { return b.active }

// Stride returns the current word stride (0 when inactive).
func (b *Buffer) Stride() int64 {
	if !b.active {
		return 0
	}
	return b.stride
}

// Len returns the number of prefetches currently in the FIFO.
func (b *Buffer) Len() int { return b.count }

// HeadBlock returns the block tag at the head of the FIFO. ok is false
// when the buffer is inactive or empty (all entries invalidated).
func (b *Buffer) HeadBlock() (blk mem.Addr, ok bool) {
	if !b.active || b.count == 0 {
		return 0, false
	}
	s := b.fifo[b.head]
	if !s.valid {
		return 0, false
	}
	return s.block, true
}

// reset flushes the FIFO and begins a new stream. startWord is the word
// address of the first prefetch target; stride is the word stride. It
// returns the number of unconsumed prefetches discarded (wasted
// bandwidth) and the number of new prefetches issued.
func (b *Buffer) reset(startWord mem.Addr, stride int64, now uint64) (flushed, issued int) {
	flushed = b.count
	b.head, b.count = 0, 0
	for i := range b.fifo {
		b.fifo[i] = slot{}
	}
	b.active = true
	b.exhausted = false
	b.stride = stride
	b.nextWord = startWord
	b.hitsThisAllocation = 0
	b.lastUse = now
	b.allocAt = now
	for i := 0; i < b.depth; i++ {
		if !b.issue(now) {
			break
		}
		issued++
	}
	return flushed, issued
}

// issue appends one prefetch to the FIFO tail, advancing the address
// generator. It reports false when the FIFO is full or the generator is
// exhausted (a negative-stride stream that walked off address 0).
func (b *Buffer) issue(now uint64) bool {
	if b.count == b.depth || b.exhausted {
		return false
	}
	blk := b.geom.BlockOfWord(b.nextWord)
	tail := b.head + b.count
	if tail >= b.depth {
		tail -= b.depth
	}
	b.fifo[tail] = slot{block: blk, valid: true, issueAt: now}
	b.count++
	if b.onPrefetch != nil {
		b.onPrefetch(blk)
	}
	if next := int64(b.nextWord) + b.stride; next < 0 {
		b.exhausted = true
	} else {
		b.nextWord = mem.Addr(next)
	}
	return true
}

// consumeHead pops the head entry and issues a replacement prefetch,
// keeping the FIFO at depth. It returns whether the popped entry's data
// had already returned (now-issueAt >= latency) and how many prefetches
// were issued as refill.
func (b *Buffer) consumeHead(now uint64, latency uint64) (ready bool, issued int) {
	s := b.fifo[b.head]
	ready = now-s.issueAt >= latency
	b.fifo[b.head] = slot{}
	b.head++
	if b.head == b.depth {
		b.head = 0
	}
	b.count--
	b.hitsThisAllocation++
	b.lastUse = now
	for b.count < b.depth {
		if !b.issue(now) {
			break
		}
		issued++
	}
	return ready, issued
}

// dropInvalidHead discards invalidated entries at the head so the next
// valid entry (if any) becomes comparable. Returns how many were
// dropped; dropped entries were fetched and never used.
func (b *Buffer) dropInvalidHead() int {
	dropped := 0
	for b.count > 0 && !b.fifo[b.head].valid {
		b.fifo[b.head] = slot{}
		b.head++
		if b.head == b.depth {
			b.head = 0
		}
		b.count--
		dropped++
	}
	return dropped
}

// invalidate clears any entry holding blk (write-back coherence: stores
// on their way to memory invalidate stale stream copies). It returns
// the number of entries cleared.
func (b *Buffer) invalidate(blk mem.Addr) int {
	if !b.active {
		return 0
	}
	n := 0
	for i, c := b.head, 0; c < b.count; c++ {
		if b.fifo[i].valid && b.fifo[i].block == blk {
			b.fifo[i].valid = false
			n++
		}
		i++
		if i == b.depth {
			i = 0
		}
	}
	return n
}

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

// Set is a group of stream buffers probed in parallel, with LRU
// selection of the stream to reallocate (the paper's policy).
//
// heads mirrors each buffer's valid head-block tag in one contiguous
// array — the software analogue of the hardware's parallel comparators.
// A probe is then a tight scan over the array instead of a pointer
// chase through every buffer's FIFO; headUnknown marks buffers whose
// head needs the slow path (empty, inactive, or dirtied by a
// write-back invalidation).
//
//simlint:state
type Set struct {
	geom    mem.Geometry
	bufs    []*Buffer
	heads   []mem.Addr
	latency uint64
	realloc Realloc
	clock   uint64
	stats   *Stats // where the set counts; see CountInto
	own     Stats  // what a set built alone counts into
}

// headUnknown is the heads[] sentinel: no cached head tag. Real block
// numbers are byte addresses shifted down, so the all-ones value can
// never collide with one.
const headUnknown = ^mem.Addr(0)

// syncHead refreshes the cached head tag of buffer i.
func (s *Set) syncHead(i int) {
	if h, ok := s.bufs[i].HeadBlock(); ok {
		s.heads[i] = h
	} else {
		s.heads[i] = headUnknown
	}
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
	// OnPrefetch, when set, observes every issued prefetch's block
	// number (memory-traffic analyses use it; nil costs nothing).
	OnPrefetch func(blk mem.Addr)
}

// NewSet builds a stream set.
func NewSet(geom mem.Geometry, cfg Config) (*Set, error) {
	if cfg.Streams < 1 {
		return nil, fmt.Errorf("stream: need at least one stream, got %d", cfg.Streams)
	}
	s := &Set{geom: geom, latency: cfg.Latency, realloc: cfg.Realloc}
	s.stats = &s.own
	for i := 0; i < cfg.Streams; i++ {
		b, err := NewBuffer(geom, cfg.Depth)
		if err != nil {
			return nil, err
		}
		b.onPrefetch = cfg.OnPrefetch
		s.bufs = append(s.bufs, b)
		s.heads = append(s.heads, headUnknown)
	}
	return s, nil
}

// Streams returns the number of buffers in the set.
func (s *Set) Streams() int { return len(s.bufs) }

// Stats returns a copy of the accumulated statistics.
func (s *Set) Stats() Stats { return *s.stats }

// CountInto redirects counting to *st from now on without disturbing
// stream contents (see cache.Cache.CountInto).
func (s *Set) CountInto(st *Stats) { s.stats = st }

// clone returns a deep copy of one buffer: same geometry and policy,
// fresh FIFO storage, identical allocation state and clocks.
//
//simlint:statefull clone
func (b *Buffer) clone() *Buffer {
	n := *b
	n.fifo = append([]slot(nil), b.fifo...)
	return &n
}

// Clone returns a deep copy of the set — every buffer's FIFO and
// address-generation state, the cached head tags, the reference clock
// and a copy of the statistics it counts into. The clone evolves and
// counts independently of the original. The OnPrefetch hook, if any,
// is shared with the original: callers that clone for concurrent
// replay must not configure one.
//
//simlint:statefull clone
func (s *Set) Clone() *Set {
	n := *s
	n.own, n.stats = *s.stats, &n.own
	n.bufs = make([]*Buffer, len(s.bufs))
	for i, b := range s.bufs {
		n.bufs[i] = b.clone()
	}
	n.heads = append([]mem.Addr(nil), s.heads...)
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

// Probe presents an on-chip miss for block blk (a block number). On a
// hit the matching stream shifts and refills; the caller moves the
// block into the primary cache. The return reports hit/miss; Probe has
// already updated all statistics.
func (s *Set) Probe(blk mem.Addr) (hit bool) {
	return s.ProbeOutcome(blk).Hit
}

// ProbeOutcome is Probe plus a per-access report of the side effects
// (pending status, refill prefetches issued).
func (s *Set) ProbeOutcome(blk mem.Addr) ProbeResult {
	s.clock++
	s.stats.Probes++
	for i, h := range s.heads {
		if h == headUnknown {
			// Slow path: drop invalidated entries at the head (as the
			// pre-heads-array code did on every buffer every probe —
			// lazily it is the same probe that does the dropping) and
			// re-cache the now-exposed head, if any.
			b := s.bufs[i]
			s.stats.PrefetchesWasted += uint64(b.dropInvalidHead())
			hb, ok := b.HeadBlock()
			if !ok {
				continue
			}
			s.heads[i] = hb
			h = hb
		}
		if h != blk {
			continue
		}
		ready, issued := s.bufs[i].consumeHead(s.clock, s.latency)
		s.syncHead(i)
		s.stats.Hits++
		if !ready {
			s.stats.PendingHits++
		}
		s.stats.PrefetchesIssued += uint64(issued)
		return ProbeResult{Hit: true, Pending: !ready, Issued: uint64(issued)}
	}
	s.stats.Misses++
	return ProbeResult{}
}

// AllocateUnit reallocates the LRU stream as a unit-stride stream
// beginning one block past missBlock (the missed block itself arrives
// via the fast path). It returns the number of prefetches issued.
func (s *Set) AllocateUnit(missBlock mem.Addr) uint64 {
	startWord := (missBlock + 1) << (s.geom.BlockShift() - s.geom.WordShift())
	return s.allocate(startWord, int64(s.geom.WordsPerBlock()))
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

// allocate picks the victim buffer per the reallocation policy
// (preferring idle buffers) and resets it, returning the number of
// prefetches issued for the new stream.
func (s *Set) allocate(startWord mem.Addr, stride int64) uint64 {
	vi := -1
	for i, b := range s.bufs {
		if !b.active {
			vi = i
			break
		}
		rank, best := b.lastUse, uint64(0)
		if vi >= 0 {
			best = s.bufs[vi].lastUse
		}
		if s.realloc == ReallocFIFO {
			rank = b.allocAt
			if vi >= 0 {
				best = s.bufs[vi].allocAt
			}
		}
		if vi < 0 || rank < best {
			vi = i
		}
	}
	victim := s.bufs[vi]
	if victim.active {
		s.stats.Lengths.add(victim.hitsThisAllocation)
	}
	flushed, issued := victim.reset(startWord, stride, s.clock)
	s.syncHead(vi)
	s.stats.PrefetchesWasted += uint64(flushed)
	s.stats.PrefetchesIssued += uint64(issued)
	s.stats.Allocations++
	return uint64(issued)
}

// InvalidateBlock implements write-back coherence: clear every stream
// entry holding blk. Cleared entries count as wasted prefetches.
func (s *Set) InvalidateBlock(blk mem.Addr) {
	for i, b := range s.bufs {
		n := b.invalidate(blk)
		if n > 0 {
			// The head tag may now be stale; the next probe re-derives
			// it (and accounts the dropped entries as wasted).
			s.heads[i] = headUnknown
		}
		s.stats.Invalidations += uint64(n)
		s.stats.PrefetchesWasted += uint64(n)
	}
}

// Finish flushes accounting at end of simulation: in-flight prefetches
// never consumed count as wasted, and live stream lengths are recorded.
func (s *Set) Finish() {
	for _, b := range s.bufs {
		if !b.active {
			continue
		}
		s.stats.PrefetchesWasted += uint64(b.count)
		s.stats.Lengths.add(b.hitsThisAllocation)
	}
}

// ActiveStreams returns how many buffers currently hold streams.
func (s *Set) ActiveStreams() int {
	n := 0
	for _, b := range s.bufs {
		if b.active {
			n++
		}
	}
	return n
}
