package core

// Allocation-regression guards: the steady-state access path must not
// allocate, or multi-hundred-million-reference sweeps spend their time
// in the garbage collector. Any append/boxing/map-growth sneaking into
// Access, AccessBatch, AccessOutcome or a logged fan-out's step fails
// here immediately.

import (
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// warmedSystem builds a default system (streams, filter, czones all
// active) and drives it past cold-start so steady state is measured.
func warmedSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<14; i++ {
		a := mem.Addr(1<<24 + i*8)
		sys.Access(mem.Access{Addr: a, Kind: mem.Read})
		if i%4 == 0 {
			sys.Access(mem.Access{Addr: 1<<20 + a%4096, Kind: mem.IFetch})
		}
		if i%7 == 0 {
			sys.Access(mem.Access{Addr: a, Kind: mem.Write})
		}
	}
	return sys
}

//simlint:hotpath (*streamsim/internal/core.System).Access
func TestAccessDoesNotAllocate(t *testing.T) {
	sys := warmedSystem(t)
	i := 0
	avg := testing.AllocsPerRun(10000, func() {
		a := mem.Addr(1<<24 + i*64)
		sys.Access(mem.Access{Addr: a, Kind: mem.Read})
		sys.Access(mem.Access{Addr: a + 8, Kind: mem.Write})
		sys.Access(mem.Access{Addr: 1 << 20, Kind: mem.IFetch})
		i++
	})
	if avg != 0 {
		t.Errorf("Access allocates %v times per call group; want 0", avg)
	}
}

//simlint:hotpath (*streamsim/internal/core.System).AccessOutcome
func TestAccessOutcomeDoesNotAllocate(t *testing.T) {
	sys := warmedSystem(t)
	i := 0
	avg := testing.AllocsPerRun(10000, func() {
		sys.AccessOutcome(mem.Access{Addr: mem.Addr(1<<24 + i*64), Kind: mem.Read})
		i++
	})
	if avg != 0 {
		t.Errorf("AccessOutcome allocates %v times per call; want 0", avg)
	}
}

//simlint:hotpath (*streamsim/internal/core.System).AccessBatch
func TestAccessBatchDoesNotAllocate(t *testing.T) {
	sys := warmedSystem(t)
	batch := make([]mem.Access, 256)
	base := mem.Addr(1 << 24)
	avg := testing.AllocsPerRun(1000, func() {
		for j := range batch {
			batch[j] = mem.Access{Addr: base + mem.Addr(j*8), Kind: mem.Read}
		}
		batch[0].Kind = mem.IFetch
		batch[0].Addr = 1 << 20
		sys.AccessBatch(batch)
		base += 64
	})
	if avg != 0 {
		t.Errorf("AccessBatch allocates %v times per 256-access batch; want 0", avg)
	}
}

// TestLoggedStepDoesNotAllocate drives the per-batch step of a logged
// fan-out: a leader logging its misses, a follower replaying the tap
// one logged reference at a time, and a second class's lone leader.
//
//simlint:hotpath (streamsim/internal/core.frontPlan).step
func TestLoggedStepDoesNotAllocate(t *testing.T) {
	plain := DefaultConfig()
	plain.UnitFilterEntries, plain.Stride = 0, NoStrideDetection
	lru := DefaultConfig()
	lru.L1D.Replacement, lru.VictimEntries = cache.LRU, 4
	var systems []*System
	for _, cfg := range []Config{DefaultConfig(), plain, lru} {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, sys)
	}
	p := planFronts(systems, true)
	defer p.settle()
	batch := make([]uint64, trace.ReplayBatchLen)
	base := uint64(1 << 24)
	fill := func() {
		for j := range batch {
			kind := mem.Read
			switch {
			case j%16 == 0:
				kind = mem.IFetch
			case j%5 == 0:
				kind = mem.Write
			}
			batch[j] = (base+uint64(j*24))<<2 | uint64(kind)
		}
		base += uint64(len(batch) * 24)
	}
	for i := 0; i < 64; i++ {
		fill()
		p.step(batch)
	}
	if len(systems[1].MissLog()) == 0 {
		t.Fatal("warm-up batch logged no misses; the test would not exercise the logs")
	}
	avg := testing.AllocsPerRun(200, func() {
		fill()
		p.step(batch)
	})
	if avg != 0 {
		t.Errorf("a logged step allocates %v times per batch; want 0", avg)
	}
}
