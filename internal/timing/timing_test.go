package timing

import (
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
)

// smallCfg is a deterministic 4 KB direct-mapped system.
func smallCfg(streams int) core.Config {
	cfg := core.DefaultConfig()
	cfg.L1I = cache.Config{Name: "L1I", SizeBytes: 4 << 10, Assoc: 1, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate}
	cfg.L1D = cache.Config{Name: "L1D", SizeBytes: 4 << 10, Assoc: 1, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate}
	cfg.Streams = stream.Config{Streams: streams, Depth: 2}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

func TestLatencyValidation(t *testing.T) {
	bad := DefaultLatencies()
	bad.L1Hit = 0
	if _, err := New(smallCfg(2), bad); err == nil {
		t.Error("zero L1 latency should be rejected")
	}
	bad = DefaultLatencies()
	bad.Memory = 1
	bad.StreamHit = 10
	if _, err := New(smallCfg(2), bad); err == nil {
		t.Error("memory faster than stream buffer should be rejected")
	}
}

func TestPureComputeCPI(t *testing.T) {
	m, err := New(smallCfg(0), DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	m.AddInstructions(1000)
	if cpi := m.Stats().CPI(); cpi != 1.0 {
		t.Errorf("compute-only CPI = %v, want 1.0", cpi)
	}
}

func TestL1HitCost(t *testing.T) {
	lat := DefaultLatencies()
	m, err := New(smallCfg(0), lat)
	if err != nil {
		t.Fatal(err)
	}
	a := mem.Access{Addr: 1 << 20, Kind: mem.Read}
	m.Access(a) // cold miss: memory
	before := m.Stats().Cycles
	m.Access(a) // hit
	if got := m.Stats().Cycles - before; got != lat.L1Hit {
		t.Errorf("L1 hit cost %d cycles, want %d", got, lat.L1Hit)
	}
}

func TestMemoryMissCost(t *testing.T) {
	lat := DefaultLatencies()
	m, err := New(smallCfg(0), lat)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(mem.Access{Addr: 1 << 20, Kind: mem.Read})
	if got := m.Stats().Cycles; got != lat.Memory {
		t.Errorf("cold miss cost %d cycles, want %d", got, lat.Memory)
	}
}

func TestStreamHitCheaperThanMemory(t *testing.T) {
	lat := DefaultLatencies()
	lat.BusBlock = 0 // isolate latency from bandwidth
	run := func(streams int) Stats {
		m, err := New(smallCfg(streams), lat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			m.Access(mem.Access{Addr: mem.Addr(1<<20 + i*64), Kind: mem.Read})
			m.AddInstructions(10)
		}
		return m.Stats()
	}
	bare := run(0)
	with := run(2)
	if with.Cycles >= bare.Cycles {
		t.Errorf("streams should cut execution time: %d vs %d cycles", with.Cycles, bare.Cycles)
	}
	// Expected improvement: ~every miss (1/block... every access here
	// is an L1 miss on a fresh block) served at StreamHit instead of
	// Memory.
	if with.CPI() > bare.CPI()*0.5 {
		t.Errorf("speedup too small: CPI %v vs %v", with.CPI(), bare.CPI())
	}
}

func TestBusContentionChargesDemandFetches(t *testing.T) {
	lat := DefaultLatencies()
	lat.BusBlock = 100 // absurd bus: contention must dominate
	m, err := New(smallCfg(2), lat)
	if err != nil {
		t.Fatal(err)
	}
	// Isolated misses: each allocates a stream (no filter), issuing 2
	// useless prefetches that clog the bus before the next miss.
	for i := 0; i < 100; i++ {
		m.Access(mem.Access{Addr: mem.Addr(1<<20 + i*64*37), Kind: mem.Read})
	}
	if m.Stats().BusWaitCycles == 0 {
		t.Error("prefetch traffic on a slow bus must delay demand fetches")
	}
}

func TestNoBusModelNoWait(t *testing.T) {
	lat := DefaultLatencies()
	lat.BusBlock = 0
	m, err := New(smallCfg(2), lat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Access(mem.Access{Addr: mem.Addr(1<<20 + i*64*37), Kind: mem.Read})
	}
	if m.Stats().BusWaitCycles != 0 {
		t.Error("BusBlock=0 must disable contention")
	}
}

func TestPendingPenalty(t *testing.T) {
	lat := DefaultLatencies()
	lat.BusBlock = 0
	cfg := smallCfg(1)
	cfg.Streams.Latency = 1000 // prefetches never ready in this test
	m, err := New(cfg, lat)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(mem.Access{Addr: 1 << 20, Kind: mem.Read}) // miss, allocates
	before := m.Stats().Cycles
	m.Access(mem.Access{Addr: 1<<20 + 64, Kind: mem.Read}) // pending stream hit
	got := m.Stats().Cycles - before
	want := lat.StreamHit + lat.PendingPenalty
	if got != want {
		t.Errorf("pending stream hit cost %d, want %d", got, want)
	}
}

// TestStatsBreakdownConsistent: execution time is compute plus memory
// stalls, the bus wait of a demand fetch included, on a sequential read
// stream whose misses wait for no transfer and on scattered reads and
// writes behind a slow bus, where every miss allocates a stream whose
// prefetches, with the write-backs, keep the bus busy past the next
// demand fetch.
func TestStatsBreakdownConsistent(t *testing.T) {
	slow := DefaultLatencies()
	slow.BusBlock = 40
	for _, tc := range []struct {
		name     string
		lat      Latencies
		scatter  bool
		waitsBus bool
	}{
		{"sequential", DefaultLatencies(), false, false},
		{"scattered behind a slow bus", slow, true, true},
	} {
		m, err := New(smallCfg(2), tc.lat)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			a := mem.Access{Addr: mem.Addr(1<<20 + i*64), Kind: mem.Read}
			if tc.scatter {
				a.Addr = 1<<24 + mem.Addr(uint32(i)*2654435761>>14)<<6
				if i%2 == 1 {
					a.Kind = mem.Write
				}
			}
			m.Access(a)
			m.AddInstructions(3)
		}
		s := m.Stats()
		if s.Cycles != s.InstructionCycles+s.StallCycles {
			t.Errorf("%s: cycle breakdown broken: %d != %d + %d (bus wait %d)",
				tc.name, s.Cycles, s.InstructionCycles, s.StallCycles, s.BusWaitCycles)
		}
		if got := s.BusWaitCycles > 0; got != tc.waitsBus {
			t.Errorf("%s: %d bus-wait cycles; want waiting %v", tc.name, s.BusWaitCycles, tc.waitsBus)
		}
		if s.CPI() <= 1 {
			t.Errorf("%s: CPI = %v, must exceed 1 with memory stalls", tc.name, s.CPI())
		}
	}
}

func TestSystemExposed(t *testing.T) {
	m, err := New(smallCfg(2), DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	m.Access(mem.Access{Addr: 1 << 20, Kind: mem.Read})
	if m.System() == nil {
		t.Fatal("System() should expose the functional simulator")
	}
	if got := m.Results().L1D.Accesses; got != 1 {
		t.Errorf("functional results lost: accesses = %d", got)
	}
}

func TestEmptyStatsCPI(t *testing.T) {
	var s Stats
	if s.CPI() != 0 {
		t.Error("CPI with no instructions should be 0")
	}
}

func TestNewWithL2Validation(t *testing.T) {
	bad := cache.Config{SizeBytes: 100, Assoc: 1, BlockBytes: 64}
	if _, err := NewWithL2(smallCfg(0), bad, DefaultLatencies()); err == nil {
		t.Error("invalid L2 config should be rejected")
	}
}

func TestL2InterceptsFastPath(t *testing.T) {
	lat := DefaultLatencies()
	lat.BusBlock = 0
	l2cfg := cache.Config{
		Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	}
	m, err := NewWithL2(smallCfg(0), l2cfg, lat)
	if err != nil {
		t.Fatal(err)
	}
	if m.L2() == nil {
		t.Fatal("L2 accessor should expose the cache")
	}
	a, b := mem.Addr(1<<20), mem.Addr(1<<20+4096) // conflict in the 4 KB L1
	m.Access(mem.Access{Addr: a, Kind: mem.Read}) // memory (L2 cold)
	m.Access(mem.Access{Addr: b, Kind: mem.Read}) // evicts a from L1; L2 cold
	before := m.Stats().Cycles
	m.Access(mem.Access{Addr: a, Kind: mem.Read}) // L1 conflict miss -> L2 hit
	if got := m.Stats().Cycles - before; got != lat.L2Hit {
		t.Errorf("L2 hit cost %d cycles, want %d", got, lat.L2Hit)
	}
	if m.L2().Stats().Hits != 1 {
		t.Errorf("L2 hits = %d, want 1", m.L2().Stats().Hits)
	}
}

func TestL2MissStillPaysMemory(t *testing.T) {
	lat := DefaultLatencies()
	lat.BusBlock = 0
	l2cfg := cache.Config{
		Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	}
	m, err := NewWithL2(smallCfg(0), l2cfg, lat)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Stats().Cycles
	m.Access(mem.Access{Addr: 1 << 20, Kind: mem.Read})
	if got := m.Stats().Cycles - before; got != lat.Memory {
		t.Errorf("L2 cold miss cost %d cycles, want %d (memory)", got, lat.Memory)
	}
}

func TestL2SpeedsUpRewalk(t *testing.T) {
	lat := DefaultLatencies()
	lat.BusBlock = 0
	l2cfg := cache.Config{
		Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	}
	runPass := func(withL2 bool) uint64 {
		var m *Model
		var err error
		if withL2 {
			m, err = NewWithL2(smallCfg(0), l2cfg, lat)
		} else {
			m, err = New(smallCfg(0), lat)
		}
		if err != nil {
			t.Fatal(err)
		}
		// Two passes over 512 KB: the second fits the L2 but not the L1.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 8192; i++ {
				m.Access(mem.Access{Addr: mem.Addr(1<<22 + i*64), Kind: mem.Read})
			}
		}
		return m.Stats().Cycles
	}
	if with, without := runPass(true), runPass(false); with >= without {
		t.Errorf("L2 should cut re-walk time: %d vs %d cycles", with, without)
	}
}
