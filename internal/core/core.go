// Package core assembles the paper's memory system: split on-chip L1
// instruction and data caches backed *only* by a set of stream buffers
// and main memory (Figure 1). References flow L1 → streams → memory;
// stream misses use the fast path directly to memory; write-backs
// bypass the streams and invalidate stale stream copies.
//
// The package wires together the cache, stream and filter models and
// keeps the bandwidth ledger from which the paper's metrics — stream
// hit rate, extra bandwidth (EB), stream-length distribution — are
// derived. It is the simulator the paper's Section 4 describes, minus
// the Shade front end (see internal/workload for the trace source).
package core

import (
	"fmt"

	"streamsim/internal/cache"
	"streamsim/internal/filter"
	"streamsim/internal/mem"
	"streamsim/internal/stats"
	"streamsim/internal/stream"
	"streamsim/internal/victim"
)

// StrideScheme selects the non-unit-stride detection hardware.
type StrideScheme uint8

// Available stride-detection schemes.
const (
	// NoStrideDetection disables non-unit-stride streams.
	NoStrideDetection StrideScheme = iota
	// CzoneScheme is the Section 7 partition scheme (the paper's
	// preferred design).
	CzoneScheme
	// MinDeltaScheme is the Section 7 alternative kept for comparison.
	MinDeltaScheme
)

// String names the scheme.
func (s StrideScheme) String() string {
	switch s {
	case NoStrideDetection:
		return "none"
	case CzoneScheme:
		return "czone"
	case MinDeltaScheme:
		return "min-delta"
	default:
		return fmt.Sprintf("StrideScheme(%d)", uint8(s))
	}
}

// Config describes a complete memory system. DefaultConfig returns the
// paper's baseline; zero values elsewhere mean "disabled".
type Config struct {
	// Geometry fixes word and block sizes (default 4/64 bytes).
	Geometry mem.Geometry

	// L1I and L1D configure the on-chip caches. The paper uses
	// 64 KB 4-way with random replacement for both; the data cache is
	// write-back, write-allocate.
	L1I cache.Config
	L1D cache.Config

	// Streams configures the stream buffer set. Streams.Streams == 0
	// disables stream buffers entirely (L1 + memory only).
	Streams stream.Config

	// PartitionedStreams gives instruction and data misses separate
	// stream sets (each of Streams.Streams buffers), as the MacroTek
	// PowerPC memory controller does. The paper found partitioning
	// unhelpful — the large on-chip I cache leaves too few instruction
	// misses — and uses unified streams; the ablation benches verify.
	PartitionedStreams bool

	// VictimEntries adds a Jouppi victim cache of this many fully-
	// associative entries behind each L1. The paper's 4-way L1s don't
	// need one ("in a direct-mapped cache, Jouppi's victim buffers may
	// also be needed"); direct-mapped configurations do.
	VictimEntries int

	// UnitFilterEntries enables the Section 6 unit-stride filter when
	// > 0 (the paper uses 16 entries for its filtered results).
	UnitFilterEntries int

	// Stride selects the non-unit-stride scheme; it observes only
	// references that the unit-stride filter rejects (or, with the
	// unit filter disabled, every stream miss).
	Stride StrideScheme
	// StrideFilterEntries sizes the czone or min-delta history
	// (16 in the paper).
	StrideFilterEntries int
	// CzoneBits sets the czone size in word-address bits (Figure 9
	// sweeps 10-26).
	CzoneBits uint
	// MinDeltaMax bounds accepted min-delta strides in words
	// (0 = unbounded).
	MinDeltaMax int64
}

// Config is a comparable value: the experiments memoize replay results
// by it (internal/sweeprun), so a configuration is its own memo key and
// a field added later joins the key. A field of func, slice or map type
// would fail to compile here; an observer of the simulation belongs on
// the built System instead (System.OnTraffic).
var _ map[Config]Results

// DefaultConfig is the paper's baseline: 64K+64K 4-way random-
// replacement L1s, ten streams of depth two, both filters at sixteen
// entries, czone of sixteen bits.
func DefaultConfig() Config {
	return Config{
		Geometry: mem.DefaultGeometry(),
		L1I: cache.Config{
			Name: "L1I", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64,
			Replacement: cache.Random, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			Seed: 1,
		},
		L1D: cache.Config{
			Name: "L1D", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64,
			Replacement: cache.Random, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
			Seed: 2,
		},
		Streams:             stream.Config{Streams: 10, Depth: 2},
		UnitFilterEntries:   16,
		Stride:              CzoneScheme,
		StrideFilterEntries: 16,
		CzoneBits:           16,
	}
}

// System is a running memory system. It is not safe for concurrent use.
type System struct {
	cfg      Config
	geom     mem.Geometry
	l1i      *cache.Cache
	l1d      *cache.Cache
	victimI  *victim.Cache
	victimD  *victim.Cache
	streams  *stream.Set // unified, or the data set when partitioned
	streamsI *stream.Set // instruction set when partitioned
	uf       *filter.UnitStride
	nf       *filter.NonUnitStride
	md       *filter.MinDelta

	instructions uint64
	finished     bool
	out          Outcome            // scratch for AccessOutcome and the miss log
	onTraffic    func(blk mem.Addr) // see OnTraffic

	// tap, when non-nil, records every backend event as a packed word:
	// the write-backs to memory (writeBack) and the L1 miss fills that
	// get past the victim buffer (fill). The multi-config replay engine
	// arms it on the leader of each front class with followers —
	// systems sharing the leader's geometry, L1s and victim buffer size
	// (frontPlan) — and on a leader recording its front (Front), and
	// the followers replay only the tapped events through their own
	// backend instead of re-simulating an identical front (see
	// applyTap).
	tap []uint64

	// log, when non-nil, is the miss log of the batch being replayed:
	// one entry per reference that left the L1-hit path (see Miss).
	// The logged fan-out (ReplayStoreFronts with a batch callback) arms
	// it on every system with room for a whole batch, and a leader
	// recording its front arms it too: a leader logs from AccessPacked's
	// probe loops (logMiss), a follower from its tap segments
	// (applyLog).
	log []Miss

	ctr counters // every statistic; the components count into it (bind)
}

// Backend event words carried in System.tap, low bits first: bit 0 is
// the event type, bit 1 the ifetch flag of a fill, the rest the
// address.
const (
	tapWriteBack = 1 // bits 2..: written-back block address
	tapIFetch    = 2 // fill events only: the miss was an ifetch
)

// counters is every statistic a System keeps, as one plain value whose
// leaves are all uint64 event counts. Each component counts into its
// part through a pointer (bind), and the backend (writeBack, fill,
// fetch) and missVia's victim probe count Bandwidth directly. Counts
// add up over any split of the reference stream, so resetting is
// assigning the zero value, merging deltas is a leaf-wise sum (Merge)
// and adopting another system's components while keeping the counts
// is a bind. The fields are exported only so that sum can set them.
type counters struct {
	L1I, L1D          cache.Stats
	VictimI, VictimD  victim.Stats
	Streams, StreamsI stream.Stats // unified (or data) set; instruction set
	UnitFilter        filter.UnitStrideStats
	CzoneFilter       filter.NonUnitStrideStats
	MinDelta          filter.MinDeltaStats
	Bandwidth         Bandwidth
}

// bind points every component's counting at its part of s.ctr. New,
// clone and adoptFront call it whenever s takes components that
// counted elsewhere before (a component built or cloned alone counts
// into a value of its own).
func (s *System) bind() {
	s.l1i.CountInto(&s.ctr.L1I)
	s.l1d.CountInto(&s.ctr.L1D)
	if s.victimI != nil {
		s.victimI.CountInto(&s.ctr.VictimI)
		s.victimD.CountInto(&s.ctr.VictimD)
	}
	if s.streams != nil {
		s.streams.CountInto(&s.ctr.Streams)
	}
	if s.streamsI != nil {
		s.streamsI.CountInto(&s.ctr.StreamsI)
	}
	if s.uf != nil {
		s.uf.CountInto(&s.ctr.UnitFilter)
	}
	if s.nf != nil {
		s.nf.CountInto(&s.ctr.CzoneFilter)
	}
	if s.md != nil {
		s.md.CountInto(&s.ctr.MinDelta)
	}
}

// Bandwidth is the block-traffic ledger. All counts are in cache
// blocks moved between the chip and main memory.
type Bandwidth struct {
	// DemandFetches counts blocks fetched over the fast path (stream
	// misses, and every fill when streams are disabled).
	DemandFetches uint64
	// StreamFills counts blocks delivered to L1 from the streams.
	StreamFills uint64
	// VictimFills counts blocks recovered from a victim cache (no
	// off-chip traffic).
	VictimFills uint64
	// WriteBacks counts dirty blocks written to memory.
	WriteBacks uint64
}

// MaxCount is the ceiling on every count that sizes an allocation: the
// stream count and depth, the victim entries and both filters'
// entries. It is far above the paper's hardware (ten streams of depth
// two, sixteen-entry filters) and every configuration the experiments
// use, and low enough that no configuration can ask for more memory
// than the process has.
const MaxCount = 1024

// Validate checks cfg without allocating anything: every sizing count
// lies in [0, MaxCount], the L1 block sizes agree with the geometry
// (the paper's when unset), each filter and stride scheme has the
// stream buffers it allocates into, and every component New would
// build accepts its configuration (the components' own Validate
// checks). New calls it first, so no component constructor can fail
// after it; callers that build configurations from untrusted input
// (the sweep and search validators) call it to reject a request before
// anything runs.
func (cfg Config) Validate() error {
	for _, c := range []struct {
		what string
		n    int
	}{
		{"stream count", cfg.Streams.Streams},
		{"stream depth", cfg.Streams.Depth},
		{"victim cache size", cfg.VictimEntries},
		{"unit filter size", cfg.UnitFilterEntries},
		{"stride filter size", cfg.StrideFilterEntries},
	} {
		if c.n < 0 || c.n > MaxCount {
			return fmt.Errorf("core: %s %d outside [0, %d]", c.what, c.n, MaxCount)
		}
	}
	geom := cfg.Geometry
	if geom == (mem.Geometry{}) {
		geom = mem.DefaultGeometry()
	}
	if cfg.L1I.BlockBytes != geom.BlockBytes() || cfg.L1D.BlockBytes != geom.BlockBytes() {
		return fmt.Errorf("core: L1 block sizes (%d, %d) must match geometry block size %d",
			cfg.L1I.BlockBytes, cfg.L1D.BlockBytes, geom.BlockBytes())
	}
	if err := cfg.L1I.Validate(); err != nil {
		return err
	}
	if err := cfg.L1D.Validate(); err != nil {
		return err
	}
	streams := cfg.Streams.Streams > 0
	switch {
	case cfg.PartitionedStreams && !streams:
		return fmt.Errorf("core: partitioned streams configured without streams")
	case cfg.UnitFilterEntries > 0 && !streams:
		return fmt.Errorf("core: unit-stride filter configured without streams")
	case streams:
		if err := cfg.Streams.Validate(); err != nil {
			return err
		}
	}
	switch cfg.Stride {
	case NoStrideDetection:
		return nil
	case CzoneScheme, MinDeltaScheme:
		if !streams {
			return fmt.Errorf("core: stride detection configured without streams")
		}
	default:
		return fmt.Errorf("core: unknown stride scheme %v", cfg.Stride)
	}
	if cfg.Stride == CzoneScheme {
		return filter.ValidateNonUnitStride(cfg.StrideFilterEntries, cfg.CzoneBits)
	}
	return filter.ValidateMinDelta(cfg.StrideFilterEntries, cfg.MinDeltaMax)
}

// New builds a System from cfg. Geometry defaults to the paper's; the
// L1 block sizes must agree with the geometry's block size.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Geometry == (mem.Geometry{}) {
		cfg.Geometry = mem.DefaultGeometry()
	}
	s := &System{cfg: cfg, geom: cfg.Geometry}
	var err error
	if s.l1i, err = cache.New(cfg.L1I); err != nil {
		return nil, err
	}
	if s.l1d, err = cache.New(cfg.L1D); err != nil {
		return nil, err
	}
	if cfg.Streams.Streams > 0 {
		if s.streams, err = stream.NewSet(cfg.Geometry, cfg.Streams); err != nil {
			return nil, err
		}
		if cfg.PartitionedStreams {
			if s.streamsI, err = stream.NewSet(cfg.Geometry, cfg.Streams); err != nil {
				return nil, err
			}
		}
	}
	if cfg.VictimEntries > 0 {
		if s.victimI, err = victim.New(cfg.VictimEntries); err != nil {
			return nil, err
		}
		if s.victimD, err = victim.New(cfg.VictimEntries); err != nil {
			return nil, err
		}
	}
	if cfg.UnitFilterEntries > 0 {
		if s.uf, err = filter.NewUnitStride(cfg.UnitFilterEntries); err != nil {
			return nil, err
		}
	}
	switch cfg.Stride {
	case CzoneScheme:
		if s.nf, err = filter.NewNonUnitStride(cfg.StrideFilterEntries, cfg.CzoneBits); err != nil {
			return nil, err
		}
	case MinDeltaScheme:
		if s.md, err = filter.NewMinDelta(cfg.StrideFilterEntries, cfg.MinDeltaMax); err != nil {
			return nil, err
		}
	}
	s.bind()
	return s, nil
}

// Config returns the configuration the system was built with.
func (s *System) Config() Config { return s.cfg }

// OnTraffic sets fn to observe every block the system moves over the
// memory interface from now on, in order: fast-path fetches and
// write-backs on the demand side, issued stream prefetches on the
// prefetch side. Together they are the full traffic sequence
// bank-interleaving analyses replay (see internal/memctl). A nil fn,
// the default, observes nothing and costs nothing. Snapshot copies
// (Fork, Checkpoint) share the hook.
//
// The hook is set on the built system, not in its Config, so that a
// Config stays a comparable memo key: a hooked replay is run for its
// side effects and never reaches a results memo.
func (s *System) OnTraffic(fn func(blk mem.Addr)) {
	s.onTraffic = fn
	if s.streams != nil {
		s.streams.OnPrefetch(fn)
	}
	if s.streamsI != nil {
		s.streamsI.OnPrefetch(fn)
	}
}

// SetCzoneBits retunes the czone at run time (the paper's memory-mapped
// mask store). It fails unless the czone scheme is active.
func (s *System) SetCzoneBits(bits uint) error {
	if s.nf == nil {
		return fmt.Errorf("core: czone scheme not configured")
	}
	return s.nf.SetCzoneBits(bits)
}

// AddInstructions advances the retired-instruction counter; workloads
// call this so Table 1's MPI column can be computed.
func (s *System) AddInstructions(n uint64) { s.instructions += n }

// Instructions returns the retired-instruction count.
func (s *System) Instructions() uint64 { return s.instructions }

// Level says where an access was satisfied.
type Level uint8

// Service levels, nearest first.
const (
	// LevelUnsampled means set sampling skipped the reference.
	LevelUnsampled Level = iota
	// LevelL1 is an on-chip cache hit.
	LevelL1
	// LevelVictim is a victim-buffer hit (no off-chip traffic).
	LevelVictim
	// LevelStream is a stream-buffer hit.
	LevelStream
	// LevelMemory is a fast-path fetch from main memory.
	LevelMemory
	// LevelNone is a no-write-allocate store forwarded to memory.
	LevelNone
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelUnsampled:
		return "unsampled"
	case LevelL1:
		return "L1"
	case LevelVictim:
		return "victim"
	case LevelStream:
		return "stream"
	case LevelMemory:
		return "memory"
	case LevelNone:
		return "none"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Outcome describes what one access did, for timing models layered on
// top of the functional simulator.
type Outcome struct {
	// Level is where the data came from.
	Level Level
	// Pending is set for stream hits whose prefetch had not yet
	// returned (the paper's Section 8 caveat).
	Pending bool
	// WroteBack is set when the access displaced a dirty block to
	// memory (directly or out of the victim buffer).
	WroteBack bool
	// Prefetches counts stream prefetches issued as a side effect.
	Prefetches uint64
}

// Miss is one entry of a system's miss log: a reference of the
// replayed batch that left the L1-hit path — an L1 miss or a reference
// set sampling skipped — and how it was serviced. The batch's other
// references hit in the L1.
type Miss struct {
	// Index is the reference's position in its batch.
	Index int
	// TapEnd is the length of the front leader's tap once the
	// reference was done: its backend events are the tap from the
	// previous entry's TapEnd up to TapEnd.
	TapEnd int
	// Addr is the referenced address, and Write is set for a store.
	Addr  mem.Addr
	Write bool
	// Outcome is how this system serviced the reference.
	Outcome
}

// Access presents one memory reference to the system.
//
// The L1 probe is inlined here (and in AccessBatch) rather than
// delegated: the stream workloads hit L1 on the vast majority of
// references, and finishing a hit without a second call frame is
// worth the small duplication with AccessBatch.
//
//simlint:hotpath
func (s *System) Access(a mem.Access) {
	c, write, ifetch := s.l1d, a.Kind == mem.Write, false
	if a.Kind == IFetchKind {
		c, write, ifetch = s.l1i, false, true
	}
	if way, st := c.Probe(uint64(a.Addr)); st == cache.ProbeHit {
		c.HitAt(way, write)
		s.out.Level = LevelL1
	} else {
		s.missVia(c, a.Addr, write, ifetch, st)
	}
}

// AccessBatch presents a slice of references in order. It is the replay
// fast path: one call replaces len(accs) interface dispatches. The
// statistics produced are byte-identical to calling Access in a loop.
//
//simlint:hotpath
//simlint:borrowed accs
func (s *System) AccessBatch(accs []mem.Access) {
	for i := range accs {
		a := &accs[i]
		c, write, ifetch := s.l1d, a.Kind == mem.Write, false
		if a.Kind == IFetchKind {
			c, write, ifetch = s.l1i, false, true
		}
		way, st := c.Probe(uint64(a.Addr))
		if st == cache.ProbeHit {
			c.HitAt(way, write)
			s.out.Level = LevelL1
			continue
		}
		s.missVia(c, a.Addr, write, ifetch, st)
	}
}

// AccessPacked presents packed references — uint64(addr)<<2 |
// uint64(kind), the trace.(*StoreIter).NextPacked layout — in order.
// It is the trace-replay hot path: the statistics produced are
// byte-identical to AccessBatch over the equivalent mem.Access slice,
// but each reference is a single word unpacked straight into the
// probe, with no struct materialization between decode and simulation.
// With the miss log armed, each reference that leaves the hit path is
// logged as missVia finishes it (logMiss).
//
//simlint:hotpath
//simlint:borrowed words
func (s *System) AccessPacked(words []uint64) {
	// Stack-resident probe snapshots: the compiler can prove the
	// bookkeeping calls below never write through them, so the cache
	// geometry loads hoist out of the loop instead of being reissued
	// for every reference (see cache.Prober).
	ld, li := s.l1d, s.l1i
	pd, pi := ld.Prober(), li.Prober()
	if !pd.DeferHits() || !pi.DeferHits() {
		// Stamped replacement: every hit must update its way's stamp,
		// so run the full per-reference bookkeeping.
		for i, w := range words {
			c, p, write, ifetch := ld, &pd, w&3 == uint64(mem.Write), false
			if w&3 == uint64(IFetchKind) {
				c, p, write, ifetch = li, &pi, false, true
			}
			way, st := p.Probe(w >> 2)
			if st == cache.ProbeHit {
				c.HitAt(way, write)
				continue
			}
			s.missVia(c, mem.Addr(w>>2), write, ifetch, st)
			if s.log != nil {
				s.logMiss(i, w)
			}
		}
		return
	}
	// Random replacement (the paper's L1s): a read hit's only effect is
	// the hit counter, so the dominant path of the loop accumulates in
	// registers and flushes once per batch — no per-reference stores at
	// all on a read hit.
	var hitsD, hitsI uint64
	for i, w := range words {
		if w&3 == uint64(IFetchKind) {
			if _, st := pi.Probe(w >> 2); st == cache.ProbeHit {
				hitsI++
			} else {
				s.missVia(li, mem.Addr(w>>2), false, true, st)
				if s.log != nil {
					s.logMiss(i, w)
				}
			}
			continue
		}
		write := w&3 == uint64(mem.Write)
		way, st := pd.Probe(w >> 2)
		switch {
		case st != cache.ProbeHit:
			s.missVia(ld, mem.Addr(w>>2), write, false, st)
			if s.log != nil {
				s.logMiss(i, w)
			}
		case write:
			ld.HitAt(way, true)
		default:
			hitsD++
		}
	}
	ld.AddHits(hitsD)
	li.AddHits(hitsI)
}

// AccessOutcome is Access plus a report of how the reference was
// serviced; timing models use it to charge latencies. The outcome is
// accounted incrementally inside missVia (each step records what it
// did as it happens), so the cost is O(1) per access regardless of the
// number of streams — and zero when no stream set is configured.
//
//simlint:hotpath
func (s *System) AccessOutcome(a mem.Access) Outcome {
	// Clear the event fields here rather than in missVia: plain
	// Access calls never read them, so the common replay path skips
	// the per-reference reset. Access always sets Level.
	s.out = Outcome{}
	s.Access(a)
	return s.out
}

// IFetchKind re-exports mem.IFetch for the convenience of callers that
// already import core.
const IFetchKind = mem.IFetch

// missVia continues a reference that did not hit in the on-chip cache
// c (st is the probe status Access observed): the victim buffer →
// streams → memory flow. It routes the displaced line and probes the
// victim buffer; everything past that probe is the backend (writeBack,
// fill), which followers replay from a leader's tap. It accounts s.out
// incrementally as it goes: every step that issues prefetches or
// writes back records it there, so AccessOutcome needs no before/after
// stats diffing. The event fields of s.out are only valid when the
// caller (AccessOutcome) cleared them first; Level is written on every
// path.
//
//simlint:hotpath
func (s *System) missVia(c *cache.Cache, addr mem.Addr, write, ifetch bool, st cache.ProbeStatus) {
	if st == cache.ProbeUnsampled {
		c.NoteUnsampled()
		s.out.Level = LevelUnsampled
		return
	}
	res := c.MissAt(uint64(addr), write)
	// On-chip miss. Route the displaced line first.
	vc := s.victimD
	if ifetch {
		vc = s.victimI
	}
	switch {
	case res.Evicted && vc != nil:
		// The evicted line (clean or dirty) moves into the victim
		// buffer; a dirty line displaced *out* of the buffer continues
		// to memory.
		if wbBlock, wb := vc.Insert(res.VictimBlock, res.EvictedDirty); wb {
			s.writeBack(mem.Addr(wbBlock))
		}
	case res.WroteBack:
		// No victim buffer: the dirty line goes straight to memory.
		s.writeBack(mem.Addr(res.VictimBlock))
	}
	if !res.Filled {
		// No-write-allocate store miss: the store itself goes to
		// memory (already counted by the cache's WriteBacks); nothing
		// to fetch.
		s.out.Level = LevelNone
		return
	}
	// The victim buffer is closer than the streams: a hit swaps the
	// line back with no off-chip traffic.
	if vc != nil {
		if hit, dirty := vc.Probe(uint64(s.geom.BlockAddr(addr))); hit {
			s.ctr.Bandwidth.VictimFills++
			s.out.Level = LevelVictim
			if dirty && !write {
				c.SetDirty(uint64(addr))
			}
			return
		}
	}
	s.fill(addr, ifetch)
}

// writeBack sends a dirty block to memory, bypassing the streams and
// invalidating any stale stream copy of it. Solo systems, leaders and
// followers all write back here, so the ledger count and the traffic
// post cannot drift apart on any path.
//
//simlint:hotpath
func (s *System) writeBack(blk mem.Addr) {
	if s.tap != nil {
		s.tapEvent(uint64(blk)<<2 | tapWriteBack)
	}
	s.ctr.Bandwidth.WriteBacks++
	s.out.WroteBack = true
	s.noteTraffic(blk)
	if s.streams != nil {
		s.streams.InvalidateBlock(blk)
	}
	if s.streamsI != nil {
		s.streamsI.InvalidateBlock(blk)
	}
}

// fill supplies the block of an L1 miss that got past the victim
// buffer: a stream hit delivers it on chip, anything else is fetched
// over the fast path and handed to the allocation policy.
//
//simlint:hotpath
func (s *System) fill(addr mem.Addr, ifetch bool) {
	if s.tap != nil {
		ev := uint64(addr) << 2
		if ifetch {
			ev |= tapIFetch
		}
		s.tapEvent(ev)
	}
	blk := s.geom.BlockAddr(addr)
	set := s.streams
	if ifetch && s.streamsI != nil {
		set = s.streamsI
	}
	if set == nil {
		s.out.Level = LevelMemory
		s.fetch(blk)
		return
	}
	if pr := set.ProbeOutcome(blk); pr.Hit {
		// Block supplied by a stream buffer; its fetch was already
		// accounted when the prefetch was issued.
		s.ctr.Bandwidth.StreamFills++
		s.out.Level = LevelStream
		s.out.Pending = pr.Pending
		s.out.Prefetches += pr.Issued
		return
	}
	// Stream miss: fetch over the fast path, then decide allocation.
	s.out.Level = LevelMemory
	s.fetch(blk)
	s.allocatePolicy(set, addr, blk)
}

// fetch moves one block over the fast path from memory: the only
// place a demand fetch is counted, next to its traffic post.
//
//simlint:hotpath
func (s *System) fetch(blk mem.Addr) {
	s.ctr.Bandwidth.DemandFetches++
	s.noteTraffic(blk)
}

// noteTraffic reports a demand-side block transfer to the hook.
func (s *System) noteTraffic(blk mem.Addr) {
	if s.onTraffic != nil {
		s.onTraffic(blk)
	}
}

// tapEvent records one backend event for a front-class leader.
// Outlined from the backend so the //simlint:hotpath closure stays
// free of allocating constructs: the append runs only when a fan-out
// replay armed the tap (s.tap != nil), never on the single-system
// steady state, and planFronts preallocates the buffer for the worst
// batch, so it never grows even then.
//
//simlint:coldpath
func (s *System) tapEvent(ev uint64) {
	s.tap = append(s.tap, ev)
}

// logMiss appends reference i of the batch, packed word w, to the miss
// log with the outcome missVia accounted for it, then clears the
// outcome for the
// next miss: the logged fan-out clears it when it arms the log, and a
// hit never writes it, so each entry carries its own reference's
// events only. The log has room for a whole batch, so the reslice
// never grows it. It stays out of line: inlined at AccessPacked's
// three miss sites it grew the probe loops' frame for replays that
// never log.
//
//go:noinline
//simlint:hotpath
func (s *System) logMiss(i int, w uint64) {
	n := len(s.log)
	s.log = s.log[:n+1]
	s.log[n] = Miss{Index: i, TapEnd: len(s.tap), Addr: mem.Addr(w >> 2), Write: w&3 == uint64(mem.Write), Outcome: s.out}
	s.out = Outcome{}
}

// applyTap replays a leader system's tapped backend events (see
// System.tap) through this system's own backend: the very writeBack
// and fill a solo system runs. The caller guarantees this system's
// front end — geometry, L1s and victim buffer — is configured
// identically to the leader's and entered the replay in the same
// state, so every front decision the leader made holds here verbatim:
// victim hits never reach the tap, and victim write-backs arrive as
// write-back events. The front's own counters are taken from the
// leader when the replay ends (adoptFront) instead of being
// re-simulated.
//
//simlint:hotpath
//simlint:borrowed events
func (s *System) applyTap(events []uint64) {
	for _, ev := range events {
		if ev&tapWriteBack != 0 {
			s.writeBack(mem.Addr(ev >> 2))
		} else {
			s.fill(mem.Addr(ev>>2), ev&tapIFetch != 0)
		}
	}
}

// applyLog is applyTap for a logged replay: it replays the leader's
// tap one logged reference at a time and logs this system's own
// outcome for each. The shared front decided every level but a fill's:
// a victim hit, an unsampled reference or a no-write-allocate store
// taps no fill, so each entry starts from the leader's level, and a
// fill in the segment replaces it with this system's stream or memory
// level. Write-backs and prefetches are this system's own, counted by
// its backend as the segment replays.
//
//simlint:hotpath
//simlint:borrowed tap log
func (s *System) applyLog(tap []uint64, log []Miss) {
	s.log = s.log[:len(log)]
	start := 0
	for k, e := range log {
		s.out = Outcome{Level: e.Level}
		s.applyTap(tap[start:e.TapEnd])
		start = e.TapEnd
		e.Outcome = s.out
		s.log[k] = e
	}
}

// MissLog returns the miss log of the batch a logged replay
// (ReplayStoreFronts with a batch callback) last stepped, in reference
// order. It is valid only during that replay's batch callback: the
// next batch overwrites it, and the replay disarms it on exit.
func (s *System) MissLog() []Miss { return s.log }

// adoptFront hands a follower the front its leader simulated for both
// of them (see frontPlan). The leader's L1 and victim counters are
// exactly what this system's own would have counted, and so is its
// Bandwidth.VictimFills: the victim buffer sits wholly in front of the
// tap. The follower also takes deep copies of the leader's L1s and
// victim buffers, because its own were never exercised (applyTap fed
// it backend events only): the system can then be checkpointed,
// replayed solo or lead a later fan-out. The clones are exactly the
// front a solo replay would have left, and bind points them at this
// system's counters.
func (s *System) adoptFront(leader *System) {
	s.ctr.L1I, s.ctr.L1D = leader.ctr.L1I, leader.ctr.L1D
	s.ctr.VictimI, s.ctr.VictimD = leader.ctr.VictimI, leader.ctr.VictimD
	s.ctr.Bandwidth.VictimFills = leader.ctr.Bandwidth.VictimFills
	s.l1i, s.l1d = leader.l1i.Clone(), leader.l1d.Clone()
	if leader.victimI != nil {
		s.victimI, s.victimD = leader.victimI.Clone(), leader.victimD.Clone()
	}
	s.bind()
}

// allocatePolicy implements the paper's allocation pipeline: no filter
// means allocate-on-every-miss; with the unit-stride filter a stream is
// allocated only on a filter hit; references rejected by the unit
// filter flow to the non-unit-stride scheme when one is configured.
// set is the stream set the miss belongs to (partitioned systems share
// one filter pipeline, as the MacroTek part does).
func (s *System) allocatePolicy(set *stream.Set, addr, blk mem.Addr) {
	if s.uf == nil {
		// Ordinary streams (Section 5): every miss allocates. A
		// configured stride scheme still observes the miss so purely
		// strided programs can profit (used by ablation benches only;
		// the paper always pairs stride detection with the filter).
		if s.nf != nil || s.md != nil {
			s.observeStride(set, addr)
		}
		s.out.Prefetches += set.AllocateUnit(blk)
		return
	}
	if s.uf.Lookup(blk) {
		s.out.Prefetches += set.AllocateUnit(blk)
		return
	}
	s.observeStride(set, addr)
}

// observeStride feeds the configured non-unit-stride detector and
// allocates a strided stream on verification.
func (s *System) observeStride(set *stream.Set, addr mem.Addr) {
	word := s.geom.WordAddr(addr)
	switch {
	case s.nf != nil:
		if ok, last, stride := s.nf.Observe(word); ok {
			s.out.Prefetches += set.AllocateStrided(last, stride)
		}
	case s.md != nil:
		if ok, stride := s.md.Observe(word); ok {
			s.out.Prefetches += set.AllocateStrided(word, stride)
		}
	}
}

// Finish closes the bandwidth ledger: in-flight prefetches count as
// wasted and live stream lengths are recorded. Call once, after the
// last access; Results calls it implicitly.
func (s *System) Finish() {
	if s.finished {
		return
	}
	s.finished = true
	if s.streams != nil {
		s.streams.Finish()
	}
	if s.streamsI != nil {
		s.streamsI.Finish()
	}
}

// Results summarizes a finished run.
type Results struct {
	// L1I and L1D are the cache-level statistics.
	L1I cache.Stats
	L1D cache.Stats
	// Streams is the stream-set statistics: the unified set, or the
	// merged instruction + data sets when partitioned.
	Streams stream.Stats
	// StreamsI and StreamsD split the partitioned sets (zero when the
	// streams are unified).
	StreamsI stream.Stats
	StreamsD stream.Stats
	// VictimI and VictimD are the per-cache victim buffer statistics
	// (zero when no victim cache is configured).
	VictimI victim.Stats
	VictimD victim.Stats
	// UnitFilter and StrideFilter are filter statistics (zero when the
	// corresponding hardware is disabled).
	UnitFilter  filter.UnitStrideStats
	CzoneFilter filter.NonUnitStrideStats
	MinDelta    filter.MinDeltaStats
	// Bandwidth is the block-traffic ledger.
	Bandwidth Bandwidth
	// Instructions is the retired-instruction count workloads reported.
	Instructions uint64
}

// Results finalizes the run and returns its summary, read from the
// counters value. Counters of components the configuration lacks were
// never counted into, so they read zero.
func (s *System) Results() Results {
	s.Finish()
	c := &s.ctr
	r := Results{
		L1I:          c.L1I,
		L1D:          c.L1D,
		Streams:      c.Streams,
		VictimI:      c.VictimI,
		VictimD:      c.VictimD,
		UnitFilter:   c.UnitFilter,
		CzoneFilter:  c.CzoneFilter,
		MinDelta:     c.MinDelta,
		Bandwidth:    c.Bandwidth,
		Instructions: s.instructions,
	}
	// The caches derive Accesses on read (cache.Cache.Stats).
	r.L1I.Accesses = r.L1I.Hits + r.L1I.Misses
	r.L1D.Accesses = r.L1D.Hits + r.L1D.Misses
	if s.streamsI != nil {
		r.StreamsD, r.StreamsI = c.Streams, c.StreamsI
		r.Streams = r.StreamsD.Add(r.StreamsI)
	}
	return r
}

// StreamHitRate is the paper's primary metric: the fraction of on-chip
// misses that hit in the streams, in percent.
func (r Results) StreamHitRate() float64 {
	return 100 * r.Streams.HitRate()
}

// DataMissRate is the L1D miss rate in percent (Table 1).
func (r Results) DataMissRate() float64 {
	return 100 * r.L1D.MissRate()
}

// MPI is misses per instruction in percent (Table 1's final column),
// over both caches.
func (r Results) MPI() float64 {
	return stats.Percent(r.L1I.Misses+r.L1D.Misses, r.Instructions)
}

// ExtraBandwidth is the Section 5/6 EB metric in percent: prefetched
// blocks never consumed, relative to the blocks the program itself
// fetches (its required bandwidth without streams).
func (r Results) ExtraBandwidth() float64 {
	required := r.L1I.Fills + r.L1D.Fills
	return stats.ExtraBandwidth(r.Streams.PrefetchesWasted, required)
}

// MemoryTraffic returns total blocks moved to/from memory: demand
// fetches, prefetches and write-backs.
func (r Results) MemoryTraffic() uint64 {
	return r.Bandwidth.DemandFetches + r.Streams.PrefetchesIssued + r.Bandwidth.WriteBacks
}

// RequiredTraffic returns the blocks the program would move without
// streams: every fill plus every write-back.
func (r Results) RequiredTraffic() uint64 {
	return r.L1I.Fills + r.L1D.Fills + r.Bandwidth.WriteBacks
}
