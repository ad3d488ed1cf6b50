// Package cache implements a set-associative cache model with the
// structural knobs the paper exercises: size, associativity, block
// size, LRU/random/FIFO replacement, write-back or write-through
// handling, write-allocate or no-write-allocate, and set sampling for
// fast secondary-cache hit-rate estimation (Kessler, Hill & Wood's
// technique, cited as [11] in the paper).
//
// The model is purely functional with respect to data: it tracks tags,
// valid and dirty bits but not contents, which is all a hit-rate and
// bandwidth study needs.
package cache

import "fmt"

// Replacement selects the victim way on a miss in a full set.
type Replacement uint8

// Replacement policies.
const (
	// LRU evicts the least recently used way.
	LRU Replacement = iota
	// Random evicts a uniformly random way (the paper's on-chip caches
	// use random replacement).
	Random
	// FIFO evicts the oldest-filled way regardless of use.
	FIFO
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case Random:
		return "random"
	case FIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// WritePolicy selects how stores that hit are propagated.
type WritePolicy uint8

// Write policies.
const (
	// WriteBack marks the block dirty and writes it to memory only on
	// eviction (the paper's data cache policy).
	WriteBack WritePolicy = iota
	// WriteThrough sends every store to memory immediately.
	WriteThrough
)

// String returns the policy name.
func (w WritePolicy) String() string {
	if w == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// AllocPolicy selects whether a store miss fills the cache.
type AllocPolicy uint8

// Allocation policies.
const (
	// WriteAllocate fills the block on a store miss (the paper's data
	// cache policy).
	WriteAllocate AllocPolicy = iota
	// NoWriteAllocate sends the store to memory without filling.
	NoWriteAllocate
)

// String returns the policy name.
func (a AllocPolicy) String() string {
	if a == WriteAllocate {
		return "write-allocate"
	}
	return "no-write-allocate"
}

// Config describes a cache instance.
type Config struct {
	// Name labels the cache in stats output (e.g. "L1D").
	Name string
	// SizeBytes is the total capacity. Must be a power of two.
	SizeBytes uint
	// Assoc is the number of ways per set. Must be a power of two and
	// divide SizeBytes/BlockBytes.
	Assoc uint
	// BlockBytes is the line size. Must be a power of two.
	BlockBytes uint
	// Replacement is the victim-selection policy.
	Replacement Replacement
	// Write is the store propagation policy.
	Write WritePolicy
	// Alloc is the store-miss fill policy.
	Alloc AllocPolicy
	// SampleEvery enables set sampling when > 1: only sets whose index
	// is divisible by SampleEvery are simulated; accesses to other sets
	// are ignored and reported as unsampled. Hit rates from the sampled
	// sets estimate the full cache's (the paper uses this for its
	// multi-megabyte secondary caches). 0 or 1 simulates every set.
	SampleEvery uint
	// Seed drives the Random replacement policy. Ignored otherwise.
	Seed int64
}

// Line state is kept struct-of-arrays (tags, packed valid/dirty flags,
// and replacement stamps) rather than as an array of line structs: the
// access path's tag scan then reads 8 bytes per way instead of a 32-byte
// struct, which keeps far more of the simulated cache resident in the
// host CPU's own caches. The stamp arrays are written only when the
// replacement policy reads them.
const (
	flagValid = 1 << 0
	flagDirty = 1 << 1
)

// invalidTag occupies the tag slot of an invalid way so the probe
// loop needs no separate valid check. A stored tag could only collide
// with the sentinel if an access address had all 64 bits set;
// simulator addresses are bounded by the 62-bit trace format
// (trace.MaxAddr), so the sentinel is unreachable.
const invalidTag = ^uint64(0)

// Stats accumulates the observable behaviour of a cache. For a sampled
// cache the counts cover only the sampled sets. Every field is an
// event count, so Stats values add up over any split of the reference
// stream.
type Stats struct {
	// Accesses is the number of sampled references presented. It is
	// derived (Hits + Misses) when Stats is read, so the access path
	// maintains one counter fewer.
	Accesses uint64
	// Hits is the number of sampled references that hit.
	Hits uint64
	// Misses is Accesses - Hits.
	Misses uint64
	// ReadMisses and WriteMisses split Misses by reference type.
	ReadMisses  uint64
	WriteMisses uint64
	// WriteBacks counts dirty evictions (write-back caches) or
	// propagated stores (write-through caches).
	WriteBacks uint64
	// Fills counts blocks brought in from the next level by demand
	// accesses.
	Fills uint64
	// PrefetchFills counts blocks installed by Prefetch.
	PrefetchFills uint64
	// Unsampled counts references skipped by set sampling.
	Unsampled uint64
}

// HitRate returns Hits/Accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Result reports what a single access did.
type Result struct {
	// Sampled is false when set sampling skipped the reference; every
	// other field is then meaningless.
	Sampled bool
	// Hit reports whether the reference hit.
	Hit bool
	// Filled reports whether a block was brought in.
	Filled bool
	// Evicted reports whether a valid line was displaced by the fill
	// (clean or dirty — victim caches want both).
	Evicted bool
	// EvictedDirty reports whether the displaced line was dirty.
	EvictedDirty bool
	// WroteBack reports whether a dirty victim was written to memory
	// (always equal to Evicted && EvictedDirty for write-back caches).
	WroteBack bool
	// VictimBlock is the displaced line's block address when Evicted.
	VictimBlock uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use.
//
// Way i of set s lives at flat index s<<assocShift | i in each of the
// state arrays; the access path does one address computation instead of
// chasing a per-set slice header (the per-reference simulator hot path).
type Cache struct {
	cfg        Config
	tags       []uint64
	meta       []uint8  // flagValid | flagDirty per way
	used       []uint64 // LRU stamps, written only under LRU
	filled     []uint64 // FIFO stamps, written only under FIFO
	blockShift uint
	tagShift   uint // log2(numSets), precomputed off the access path
	assocShift uint // log2(Assoc)
	setMask    uint64
	sampleMod  uint64 // cfg.SampleEvery when > 1; 0 means every set
	assoc      uint64 // cfg.Assoc, pre-widened for the probe loop
	stamped    bool   // replacement policy reads clock stamps
	clock      uint64
	rngState   uint64 // xorshift64* state for Random replacement
	stats      *Stats // where the cache counts; see CountInto
	own        Stats  // what a cache built alone counts into
}

// New validates cfg and builds the cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.BlockBytes / cfg.Assoc
	ways := numSets * cfg.Assoc
	c := &Cache{
		cfg:        cfg,
		blockShift: log2(cfg.BlockBytes),
		tagShift:   log2(numSets),
		assocShift: log2(cfg.Assoc),
		setMask:    uint64(numSets - 1),
		assoc:      uint64(cfg.Assoc),
		tags:       make([]uint64, ways),
		meta:       make([]uint8, ways),
	}
	c.stats = &c.own
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	switch cfg.Replacement {
	case LRU:
		c.used = make([]uint64, ways)
	case FIFO:
		c.filled = make([]uint64, ways)
	}
	c.stamped = c.used != nil || c.filled != nil
	if cfg.SampleEvery > 1 {
		c.sampleMod = uint64(cfg.SampleEvery)
	}
	if cfg.Replacement == Random {
		// Seed the xorshift64* generator from the config seed; the
		// state must be nonzero, and mixing with a splitmix-style
		// constant keeps nearby seeds decorrelated.
		c.rngState = uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		if c.rngState == 0 {
			c.rngState = 0x2545F4914F6CDD1D
		}
	}
	return c, nil
}

// Validate checks cfg without allocating anything: the block size,
// the capacity and the associativity are powers of two, and the
// capacity holds at least one set. New calls it first.
func (cfg Config) Validate() error {
	pow2 := func(v uint) bool { return v != 0 && v&(v-1) == 0 }
	switch {
	case !pow2(cfg.BlockBytes):
		return fmt.Errorf("cache %s: block size %d not a power of two", cfg.Name, cfg.BlockBytes)
	case !pow2(cfg.SizeBytes):
		return fmt.Errorf("cache %s: size %d not a power of two", cfg.Name, cfg.SizeBytes)
	case !pow2(cfg.Assoc):
		return fmt.Errorf("cache %s: associativity %d not a power of two", cfg.Name, cfg.Assoc)
	case cfg.SizeBytes < cfg.BlockBytes*cfg.Assoc:
		return fmt.Errorf("cache %s: size %d too small for %d ways of %d-byte blocks",
			cfg.Name, cfg.SizeBytes, cfg.Assoc, cfg.BlockBytes)
	}
	return nil
}

func log2(v uint) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats {
	st := *c.stats
	st.Accesses = st.Hits + st.Misses
	return st
}

// Footprint is the size in bytes of the cache's state arrays: tags,
// metadata and replacement stamps.
func (c *Cache) Footprint() int64 {
	return int64(8*len(c.tags) + len(c.meta) + 8*len(c.used) + 8*len(c.filled))
}

// CountInto redirects the cache's counting to *st from now on without
// disturbing its contents; Stats then reports *st. A cache built by New
// counts into a value of its own; a memory system points all of its
// components into one statistics value it owns.
func (c *Cache) CountInto(st *Stats) { c.stats = st }

// Clone returns a deep copy of the cache: same configuration and
// derived geometry, fresh backing arrays for the tag, metadata and
// replacement-stamp state, the replacement RNG state, and a copy of
// the statistics in a value of the clone's own. The clone evolves and
// counts independently of the original from this point on.
func (c *Cache) Clone() *Cache {
	n := *c
	n.own, n.stats = *c.stats, &n.own
	n.tags = append([]uint64(nil), c.tags...)
	n.meta = append([]uint8(nil), c.meta...)
	if c.used != nil {
		n.used = append([]uint64(nil), c.used...)
	}
	if c.filled != nil {
		n.filled = append([]uint64(nil), c.filled...)
	}
	return &n
}

// index splits a byte address into set index and tag.
func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.blockShift
	return blk & c.setMask, blk >> c.tagShift
}

// sampled reports whether set sampling includes this set.
func (c *Cache) sampled(set uint64) bool {
	return c.sampleMod == 0 || set%c.sampleMod == 0
}

// base returns the flat index of way 0 of a set.
func (c *Cache) base(set uint64) uint64 { return set << c.assocShift }

// ProbeStatus is Probe's verdict on a reference.
type ProbeStatus uint8

// Probe outcomes.
const (
	// ProbeHit: the block is resident; finish with HitAt.
	ProbeHit ProbeStatus = iota
	// ProbeMiss: the block is absent; finish with MissAt.
	ProbeMiss
	// ProbeUnsampled: set sampling skips this reference; finish with
	// NoteUnsampled.
	ProbeUnsampled
)

// Probe is the pure lookup half of an access: it classifies addr and,
// on a hit, returns the matching way's flat index. It mutates nothing,
// which keeps it small enough for the compiler to inline into the
// per-reference simulation loop — on the dominant hit path the whole
// cache lookup then runs without a function call. Callers MUST pair it
// with exactly one of HitAt / MissAt / NoteUnsampled to keep the
// statistics and replacement state coherent; Read and Write wrap the
// pairing for callers that want one-shot semantics.
func (c *Cache) Probe(addr uint64) (way uint64, st ProbeStatus) {
	// Written flat (no index/sampled/base helpers) to stay under the
	// inlining budget.
	blk := addr >> c.blockShift
	set := blk & c.setMask
	if c.sampleMod != 0 && set%c.sampleMod != 0 {
		return 0, ProbeUnsampled
	}
	tag := blk >> c.tagShift
	i := set << c.assocShift
	for end := i + c.assoc; i < end; i++ {
		if c.tags[i] == tag {
			return i, ProbeHit
		}
	}
	return 0, ProbeMiss
}

// Prober is a batch-scoped snapshot of the lookup geometry Probe
// reads. Every field is fixed at New time except the tags slice, whose
// header never changes while its backing array takes the insertions —
// so a Prober held across HitAt/MissAt calls still observes them. The
// point is aliasing: Probe on the *Cache reloads seven geometry fields
// per reference because the compiler must assume the interleaved
// bookkeeping calls may write anywhere in the struct, while a Prober
// kept in a caller's stack frame provably cannot alias those writes
// and the loads hoist out of the batch loop entirely.
type Prober struct {
	tags       []uint64
	setMask    uint64
	sampleMod  uint64
	assoc      uint64
	blockShift uint
	tagShift   uint
	assocShift uint
	deferHits  bool
}

// Prober returns the batch probe view of the cache. A Prober is cheap
// to build (one copy, no allocation) and remains valid for the life of
// the cache; batch loops build one per batch on the stack.
func (c *Cache) Prober() Prober {
	return Prober{
		tags:       c.tags,
		setMask:    c.setMask,
		sampleMod:  c.sampleMod,
		assoc:      c.assoc,
		blockShift: c.blockShift,
		tagShift:   c.tagShift,
		assocShift: c.assocShift,
		deferHits:  !c.stamped,
	}
}

// DeferHits reports whether a read hit's entire bookkeeping is the hit
// counter — HitAt(way, false) is then exactly AddHits(1). True for the
// paper's random-replacement caches, whose hits touch no replacement
// state; a batch loop may then count read hits in a register and flush
// the total once per batch. False under LRU/FIFO, where every hit
// must stamp the way and the per-reference HitAt path is mandatory.
func (p *Prober) DeferHits() bool { return p.deferHits }

// Probe is the Prober form of Cache.Probe: the same classification,
// reading the snapshot's geometry. The tag scan ranges over a
// sub-slice so the compiler drops the per-way bounds checks, which
// keeps the method within the inlining budget at every call site.
//
// The snapshot is borrowed for the batch: the caller keeps the Prober
// on its stack and probes through it again after the call returns, so
// Probe must not keep p. Kept, p would make the caller's Prober escape
// to the heap, and its tags slice, which aliases the cache's live
// storage, would let stale geometry corrupt a later probe.
func (p *Prober) Probe(addr uint64) (way uint64, st ProbeStatus) {
	blk := addr >> p.blockShift
	set := blk & p.setMask
	if p.sampleMod != 0 && set%p.sampleMod != 0 {
		return 0, ProbeUnsampled
	}
	tag := blk >> p.tagShift
	i := set << p.assocShift
	for k, tv := range p.tags[i : i+p.assoc] {
		if tv == tag {
			return i + uint64(k), ProbeHit
		}
	}
	return 0, ProbeMiss
}

// AddHits credits n deferred read hits in one update. Only valid when
// the cache's Prober reports DeferHits — each credited hit must have
// been a Probe that returned ProbeHit with no other bookkeeping due.
func (c *Cache) AddHits(n uint64) { c.stats.Hits += n }

// HitAt does the bookkeeping of a tag match at the way Probe returned:
// hit count, replacement clock and LRU stamp, write-policy effects.
// Inlinable, so the hit path stays call-free end to end.
func (c *Cache) HitAt(way uint64, write bool) {
	c.stats.Hits++
	if c.stamped {
		// The clock only feeds LRU/FIFO stamps; random-replacement
		// caches (the paper's L1s) skip the tick.
		c.clock++
		if c.used != nil {
			c.used[way] = c.clock
		}
	}
	if write {
		if c.cfg.Write == WriteBack {
			c.meta[way] |= flagDirty
		} else {
			c.stats.WriteBacks++
		}
	}
}

// NoteUnsampled counts a reference skipped by set sampling.
func (c *Cache) NoteUnsampled() { c.stats.Unsampled++ }

// Read presents a load at addr.
func (c *Cache) Read(addr uint64) Result { return c.access(addr, false) }

// Write presents a store at addr.
func (c *Cache) Write(addr uint64) Result { return c.access(addr, true) }

// access is the one-shot hit/miss/fill path: Probe plus the matching
// completion.
func (c *Cache) access(addr uint64, write bool) Result {
	way, st := c.Probe(addr)
	switch st {
	case ProbeHit:
		c.HitAt(way, write)
		return Result{Sampled: true, Hit: true}
	case ProbeUnsampled:
		c.NoteUnsampled()
		return Result{}
	default:
		return c.MissAt(addr, write)
	}
}

// MissAt handles fill, eviction and write-policy accounting for a
// sampled reference Probe classified as a miss.
func (c *Cache) MissAt(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	base := c.base(set)
	end := base + uint64(c.cfg.Assoc)
	if c.stamped {
		c.clock++
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}

	if write && c.cfg.Alloc == NoWriteAllocate {
		c.stats.WriteBacks++
		return Result{Sampled: true}
	}

	res := Result{Sampled: true, Filled: true}
	i := c.pickVictim(base, end)
	if c.meta[i]&flagValid != 0 {
		res.Evicted = true
		res.VictimBlock = c.victimBlock(set, c.tags[i])
		if c.meta[i]&flagDirty != 0 {
			res.EvictedDirty = true
			res.WroteBack = true
			c.stats.WriteBacks++
		}
	}
	c.tags[i] = tag
	m := uint8(flagValid)
	if write && c.cfg.Write == WriteBack {
		m |= flagDirty
	}
	c.meta[i] = m
	if write && c.cfg.Write == WriteThrough {
		c.stats.WriteBacks++
	}
	if c.used != nil {
		c.used[i] = c.clock
	}
	if c.filled != nil {
		c.filled[i] = c.clock
	}
	c.stats.Fills++
	return res
}

// victimBlock reconstructs the block address of an evicted line.
func (c *Cache) victimBlock(set, tag uint64) uint64 {
	return tag<<c.tagShift | set
}

// pickVictim chooses the flat index of the way to evict in
// [base, end), preferring invalid ways.
func (c *Cache) pickVictim(base, end uint64) uint64 {
	for i := base; i < end; i++ {
		if c.meta[i]&flagValid == 0 {
			return i
		}
	}
	switch c.cfg.Replacement {
	case Random:
		// xorshift64*: seeded at New, uniform over the power-of-two
		// associativity via masking.
		x := c.rngState
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.rngState = x
		return base + (x*0x2545F4914F6CDD1D)>>32&(end-base-1)
	case FIFO:
		best, bestAt := base, c.filled[base]
		for i := base + 1; i < end; i++ {
			if c.filled[i] < bestAt {
				best, bestAt = i, c.filled[i]
			}
		}
		return best
	default: // LRU
		best, bestAt := base, c.used[base]
		for i := base + 1; i < end; i++ {
			if c.used[i] < bestAt {
				best, bestAt = i, c.used[i]
			}
		}
		return best
	}
}

// Prefetch installs the block holding addr without counting a demand
// access: the side door used by the on-chip prefetcher baselines
// (internal/prefetch). If the block is already resident nothing
// happens and Filled is false; otherwise the fill and any eviction are
// handled exactly as for a demand miss (the victim's write-back is
// reported so the caller can account the traffic). Replacement state
// is updated so prefetched blocks age like fetched ones.
func (c *Cache) Prefetch(addr uint64) Result {
	set, tag := c.index(addr)
	if !c.sampled(set) {
		return Result{}
	}
	base := c.base(set)
	end := base + uint64(c.cfg.Assoc)
	for i := base; i < end; i++ {
		if c.tags[i] == tag {
			return Result{Sampled: true, Hit: true}
		}
	}
	c.clock++
	res := Result{Sampled: true, Filled: true}
	i := c.pickVictim(base, end)
	if c.meta[i]&flagValid != 0 {
		res.Evicted = true
		res.VictimBlock = c.victimBlock(set, c.tags[i])
		if c.meta[i]&flagDirty != 0 {
			res.EvictedDirty = true
			res.WroteBack = true
			c.stats.WriteBacks++
		}
	}
	c.tags[i] = tag
	c.meta[i] = flagValid
	if c.used != nil {
		c.used[i] = c.clock
	}
	if c.filled != nil {
		c.filled[i] = c.clock
	}
	c.stats.PrefetchFills++
	return res
}

// SetDirty marks the resident block holding addr dirty, reporting
// whether it was found. Victim-cache integration uses this to restore
// the dirty state of a line swapped back from the victim buffer.
func (c *Cache) SetDirty(addr uint64) bool {
	set, tag := c.index(addr)
	if !c.sampled(set) {
		return false
	}
	base := c.base(set)
	for i := base; i < base+uint64(c.cfg.Assoc); i++ {
		if c.meta[i]&flagValid != 0 && c.tags[i] == tag {
			c.meta[i] |= flagDirty
			return true
		}
	}
	return false
}

// Contains reports whether the block holding addr is resident. Sampled
// caches report false for unsampled sets.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	if !c.sampled(set) {
		return false
	}
	base := c.base(set)
	for i := base; i < base+uint64(c.cfg.Assoc); i++ {
		if c.meta[i]&flagValid != 0 && c.tags[i] == tag {
			return true
		}
	}
	return false
}
