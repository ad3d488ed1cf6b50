package core

import (
	"testing"
	"testing/quick"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
)

// tinyConfig returns a small deterministic system: 4 KB direct-mapped
// L1s (LRU so tests are deterministic), n streams of depth 2, filters
// off unless enabled by the caller.
func tinyConfig(nStreams int) Config {
	cfg := DefaultConfig()
	cfg.L1I = cache.Config{Name: "L1I", SizeBytes: 4 << 10, Assoc: 1, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate}
	cfg.L1D = cache.Config{Name: "L1D", SizeBytes: 4 << 10, Assoc: 1, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate}
	cfg.Streams = stream.Config{Streams: nStreams, Depth: 2}
	cfg.UnitFilterEntries = 0
	cfg.Stride = NoStrideDetection
	return cfg
}

func mustNew(t testing.TB, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.L1D.BlockBytes = 128 // disagrees with geometry
	if _, err := New(cfg); err == nil {
		t.Error("block-size mismatch should be rejected")
	}

	cfg = tinyConfig(0)
	cfg.UnitFilterEntries = 16
	if _, err := New(cfg); err == nil {
		t.Error("filter without streams should be rejected")
	}

	cfg = tinyConfig(0)
	cfg.Stride = CzoneScheme
	cfg.StrideFilterEntries = 16
	cfg.CzoneBits = 16
	if _, err := New(cfg); err == nil {
		t.Error("stride detection without streams should be rejected")
	}

	cfg = tinyConfig(2)
	cfg.Stride = StrideScheme(99)
	if _, err := New(cfg); err == nil {
		t.Error("unknown stride scheme should be rejected")
	}
}

func TestDefaultConfigBuilds(t *testing.T) {
	s := mustNew(t, DefaultConfig())
	if s.Config().Streams.Streams != 10 {
		t.Errorf("default streams = %d, want 10", s.Config().Streams.Streams)
	}
}

func TestStrideSchemeString(t *testing.T) {
	if NoStrideDetection.String() != "none" || CzoneScheme.String() != "czone" ||
		MinDeltaScheme.String() != "min-delta" {
		t.Error("scheme names wrong")
	}
	if StrideScheme(7).String() == "" {
		t.Error("unknown scheme should still format")
	}
}

// sweep feeds n sequential data reads starting at base.
func sweep(s *System, base mem.Addr, blocks int) {
	for i := 0; i < blocks; i++ {
		s.Access(mem.Access{Addr: base + mem.Addr(i*64), Kind: mem.Read})
	}
}

func TestSequentialSweepHitsStreams(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	// Sweep far more than the 4 KB L1: every block is an L1 miss, and
	// after the first miss the stream supplies every one.
	sweep(s, 1<<20, 1000)
	r := s.Results()
	if r.L1D.Misses != 1000 {
		t.Fatalf("L1D misses = %d, want 1000 (sweep exceeds cache)", r.L1D.Misses)
	}
	if r.Streams.Hits != 999 {
		t.Errorf("stream hits = %d, want 999 (all but the first miss)", r.Streams.Hits)
	}
	if hr := r.StreamHitRate(); hr < 99.8 || hr > 100 {
		t.Errorf("stream hit rate = %v, want ~99.9", hr)
	}
}

func TestStreamsDisabled(t *testing.T) {
	s := mustNew(t, tinyConfig(0))
	sweep(s, 0, 100)
	r := s.Results()
	if r.Streams.Probes != 0 {
		t.Error("no stream activity expected")
	}
	if r.Bandwidth.DemandFetches != r.L1D.Fills {
		t.Errorf("demand fetches %d != fills %d", r.Bandwidth.DemandFetches, r.L1D.Fills)
	}
}

func TestIFetchRoutesToL1I(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	s.Access(mem.Access{Addr: 0x1000, Kind: mem.IFetch})
	s.Access(mem.Access{Addr: 0x1000, Kind: mem.IFetch})
	s.Access(mem.Access{Addr: 0x2000, Kind: mem.Read})
	r := s.Results()
	if r.L1I.Accesses != 2 {
		t.Errorf("L1I accesses = %d, want 2", r.L1I.Accesses)
	}
	if r.L1D.Accesses != 1 {
		t.Errorf("L1D accesses = %d, want 1", r.L1D.Accesses)
	}
}

func TestUnifiedStreamsServeIFetches(t *testing.T) {
	// The paper's streams are unified: instruction misses probe the
	// same stream set.
	s := mustNew(t, tinyConfig(2))
	for i := 0; i < 500; i++ {
		s.Access(mem.Access{Addr: mem.Addr(1<<21 + i*64), Kind: mem.IFetch})
	}
	r := s.Results()
	if r.Streams.Hits < 490 {
		t.Errorf("instruction sweep stream hits = %d, want ~499", r.Streams.Hits)
	}
}

func TestWriteBackCountedAndLedgerBalances(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	// L1D is 4 KB direct-mapped (64 sets); a and a+4096 conflict.
	a := mem.Addr(1 << 20)
	s.Access(mem.Access{Addr: a, Kind: mem.Read})             // stream holds a+64, a+128
	s.Access(mem.Access{Addr: a + 64, Kind: mem.Write})       // stream hit; dirty in L1
	s.Access(mem.Access{Addr: a + 64 + 4096, Kind: mem.Read}) // evicts dirty a+64
	r := s.Results()
	if r.Bandwidth.WriteBacks != 1 {
		t.Fatalf("WriteBacks = %d, want 1", r.Bandwidth.WriteBacks)
	}
	if r.MemoryTraffic()-r.RequiredTraffic() != r.Streams.PrefetchesWasted {
		t.Errorf("bandwidth ledger inconsistent: traffic %d, required %d, wasted %d",
			r.MemoryTraffic(), r.RequiredTraffic(), r.Streams.PrefetchesWasted)
	}
}

func TestExplicitStreamInvalidationOnWriteBack(t *testing.T) {
	// Construct a guaranteed invalidation: block B sits in a stream
	// while an aliased dirty copy of B is evicted from L1.
	cfg := tinyConfig(2)
	s := mustNew(t, cfg)
	b := mem.Addr(1 << 20) // block-aligned
	// Dirty B in L1.
	s.Access(mem.Access{Addr: b, Kind: mem.Write})
	// Start a stream that will prefetch B: miss at B-64 allocates a
	// stream prefetching B, B+64 (B-64 maps to a different L1 set, so
	// B stays resident and dirty).
	s.Access(mem.Access{Addr: b - 64, Kind: mem.Read})
	// Evict dirty B: read its set conflict (4 KB direct-mapped L1).
	s.Access(mem.Access{Addr: b + 4096, Kind: mem.Read})
	r := s.Results()
	if r.Streams.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1 (write-back of B must kill its stream copy)",
			r.Streams.Invalidations)
	}
}

func TestUnitFilterSuppressesIsolatedAllocations(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.UnitFilterEntries = 16
	s := mustNew(t, cfg)
	// Isolated (non-consecutive) misses: no stream should be allocated.
	for i := 0; i < 100; i++ {
		s.Access(mem.Access{Addr: mem.Addr(1<<20 + i*64*37), Kind: mem.Read})
	}
	r := s.Results()
	if r.Streams.Allocations != 0 {
		t.Errorf("Allocations = %d, want 0 (isolated misses filtered)", r.Streams.Allocations)
	}
	if r.Streams.PrefetchesIssued != 0 {
		t.Errorf("PrefetchesIssued = %d, want 0", r.Streams.PrefetchesIssued)
	}
}

func TestUnitFilterStillCatchesSequentialRuns(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.UnitFilterEntries = 16
	s := mustNew(t, cfg)
	sweep(s, 1<<20, 1000)
	r := s.Results()
	// The filter costs the first two misses of the run; the rest hit.
	if r.Streams.Hits != 998 {
		t.Errorf("stream hits = %d, want 998", r.Streams.Hits)
	}
	if r.Streams.Allocations != 1 {
		t.Errorf("Allocations = %d, want 1", r.Streams.Allocations)
	}
}

func TestFilterReducesExtraBandwidth(t *testing.T) {
	mixed := func(cfg Config) Results {
		s := mustNew(t, cfg)
		// A mix: one real sequential stream plus many isolated misses.
		seq := mem.Addr(1 << 20)
		iso := mem.Addr(1 << 24)
		for i := 0; i < 2000; i++ {
			s.Access(mem.Access{Addr: seq + mem.Addr(i*64), Kind: mem.Read})
			s.Access(mem.Access{Addr: iso + mem.Addr(i*64*101), Kind: mem.Read})
		}
		return s.Results()
	}
	plain := mixed(tinyConfig(4))
	cfgF := tinyConfig(4)
	cfgF.UnitFilterEntries = 16
	filtered := mixed(cfgF)
	if filtered.ExtraBandwidth() >= plain.ExtraBandwidth() {
		t.Errorf("filter should cut EB: %0.1f%% (filtered) vs %0.1f%% (plain)",
			filtered.ExtraBandwidth(), plain.ExtraBandwidth())
	}
	// And the hit rate should not collapse: long runs still stream.
	if filtered.StreamHitRate() < plain.StreamHitRate()-5 {
		t.Errorf("filter cost too much hit rate: %0.1f vs %0.1f",
			filtered.StreamHitRate(), plain.StreamHitRate())
	}
}

func TestCzoneDetectsLargeStrides(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.UnitFilterEntries = 16
	cfg.Stride = CzoneScheme
	cfg.StrideFilterEntries = 16
	cfg.CzoneBits = 16
	s := mustNew(t, cfg)
	// Column walk: stride 1024 words = 4096 bytes (64 blocks), well
	// within a 2^16-word czone.
	base := mem.Addr(1 << 21)
	for i := 0; i < 1000; i++ {
		s.Access(mem.Access{Addr: base + mem.Addr(i*4096), Kind: mem.Read})
	}
	r := s.Results()
	if r.CzoneFilter.Allocations == 0 {
		t.Fatal("czone scheme never fired")
	}
	if hr := r.StreamHitRate(); hr < 90 {
		t.Errorf("strided hit rate = %0.1f%%, want >90%%", hr)
	}
}

func TestUnitStrideOnlyMissesLargeStrides(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.UnitFilterEntries = 16
	s := mustNew(t, cfg) // no stride detection
	base := mem.Addr(1 << 21)
	for i := 0; i < 1000; i++ {
		s.Access(mem.Access{Addr: base + mem.Addr(i*4096), Kind: mem.Read})
	}
	r := s.Results()
	if hr := r.StreamHitRate(); hr != 0 {
		t.Errorf("unit-only hit rate on large strides = %0.1f%%, want 0", hr)
	}
}

func TestMinDeltaSchemeDetectsStrides(t *testing.T) {
	cfg := tinyConfig(4)
	cfg.UnitFilterEntries = 16
	cfg.Stride = MinDeltaScheme
	cfg.StrideFilterEntries = 16
	s := mustNew(t, cfg)
	base := mem.Addr(1 << 21)
	for i := 0; i < 1000; i++ {
		s.Access(mem.Access{Addr: base + mem.Addr(i*4096), Kind: mem.Read})
	}
	r := s.Results()
	if hr := r.StreamHitRate(); hr < 90 {
		t.Errorf("min-delta hit rate = %0.1f%%, want >90%%", hr)
	}
}

func TestMPIAndMissRate(t *testing.T) {
	s := mustNew(t, tinyConfig(0))
	sweep(s, 1<<20, 100) // 100 compulsory misses
	s.AddInstructions(10000)
	r := s.Results()
	if r.Instructions != 10000 {
		t.Errorf("Instructions = %d, want 10000", r.Instructions)
	}
	if got := r.MPI(); got != 1.0 {
		t.Errorf("MPI = %v%%, want 1.0", got)
	}
	if got := r.DataMissRate(); got != 100 {
		t.Errorf("DataMissRate = %v%%, want 100 (pure cold sweep)", got)
	}
}

func TestFinishIdempotent(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	sweep(s, 1<<20, 10)
	s.Finish()
	w1 := s.Results().Streams.PrefetchesWasted
	s.Finish()
	w2 := s.Results().Streams.PrefetchesWasted
	if w1 != w2 {
		t.Errorf("Finish not idempotent: wasted %d then %d", w1, w2)
	}
}

// ledgerRun drives a tiny system through the access pattern seed
// encodes: each value steps, jumps or writes. filtered adds the unit
// and czone filters.
func ledgerRun(t testing.TB, seed []uint16, filtered bool) Results {
	cfg := tinyConfig(4)
	if filtered {
		cfg.UnitFilterEntries = 8
		cfg.Stride = CzoneScheme
		cfg.StrideFilterEntries = 8
		cfg.CzoneBits = 16
	}
	s := mustNew(t, cfg)
	addr := mem.Addr(1 << 20)
	for _, v := range seed {
		switch v % 4 {
		case 0: // sequential step
			addr += 64
		case 1: // stride jump
			addr += 4096
		case 2: // random-ish jump
			addr = mem.Addr(1<<20) + mem.Addr(v)*977*64
		case 3: // write
			s.Access(mem.Access{Addr: addr, Kind: mem.Write})
			continue
		}
		s.Access(mem.Access{Addr: addr, Kind: mem.Read})
	}
	return s.Results()
}

// ledgerBalances reports whether r's bandwidth ledger balances: memory
// traffic minus required traffic equals wasted prefetches, and L1
// fills equal demand fetches plus stream fills.
func ledgerBalances(r Results) bool {
	if r.L1I.Fills+r.L1D.Fills != r.Bandwidth.DemandFetches+r.Bandwidth.StreamFills {
		return false
	}
	return r.MemoryTraffic()-r.RequiredTraffic() == r.Streams.PrefetchesWasted
}

// Property: the bandwidth ledger always balances.
func TestBandwidthLedgerInvariant(t *testing.T) {
	f := func(seed []uint16, filtered bool) bool {
		return ledgerBalances(ledgerRun(t, seed, filtered))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBandwidthLedgerAfterInvalidation pins an input of the property
// above on which a write-back invalidates a stream entry, which its
// random inputs reach rarely: the invalidated entry must count as
// wasted once, when it leaves its FIFO.
func TestBandwidthLedgerAfterInvalidation(t *testing.T) {
	seed := []uint16{0xb9fb, 0xe64f, 0xe83c, 0x720e, 0x1d64, 0xec41,
		0x7557, 0x7b20, 0x74f3, 0xf1, 0xd188, 0xcd27, 0x3584, 0x9849,
		0xf19, 0x439b, 0x78ed}
	r := ledgerRun(t, seed, true)
	if r.Streams.Invalidations == 0 {
		t.Fatal("the input no longer invalidates a stream entry; the test would not exercise the invalidation path")
	}
	if !ledgerBalances(r) {
		t.Errorf("memory minus required traffic %d, wasted %d; fills %d, demand fetches %d + stream fills %d",
			r.MemoryTraffic()-r.RequiredTraffic(), r.Streams.PrefetchesWasted,
			r.L1I.Fills+r.L1D.Fills, r.Bandwidth.DemandFetches, r.Bandwidth.StreamFills)
	}
}

// Property: the system is fully deterministic — two instances fed the
// same access sequence produce identical results (the seeded random
// replacement is the only stochastic component).
func TestSystemDeterministic(t *testing.T) {
	f := func(ops []uint16) bool {
		mk := func() Results {
			s, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				kind := mem.Read
				if op%5 == 0 {
					kind = mem.Write
				}
				s.Access(mem.Access{Addr: mem.Addr(1<<20 + int(op)*64), Kind: kind})
			}
			return s.Results()
		}
		a, b := mk(), mk()
		return a.Streams == b.Streams && a.L1D == b.L1D && a.Bandwidth == b.Bandwidth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
