package timing

import (
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/trace"
)

// TestChargeBatchDoesNotAllocate: charging a batch — bulk hits, and
// logged misses of every level through the secondary cache and the bus
// — allocates nothing.
//
//simlint:hotpath (*streamsim/internal/timing.Model).chargeBatch
func TestChargeBatchDoesNotAllocate(t *testing.T) {
	l2 := cache.Config{
		Name: "L2", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	}
	m, err := NewWithL2(smallCfg(2), l2, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	var log []core.Miss
	levels := []core.Level{core.LevelMemory, core.LevelStream, core.LevelVictim, core.LevelNone, core.LevelUnsampled}
	for i := 0; i < trace.ReplayBatchLen; i += 7 {
		log = append(log, core.Miss{Index: i, Addr: mem.Addr(1<<20 + i*4096), Write: i%3 == 0, Outcome: core.Outcome{
			Level: levels[i%len(levels)], Pending: i%2 == 0, WroteBack: i%4 == 0, Prefetches: 2,
		}})
	}
	avg := testing.AllocsPerRun(1000, func() {
		m.chargeBatch(trace.ReplayBatchLen, log, 3)
	})
	if avg != 0 {
		t.Errorf("chargeBatch allocates %v times per batch; want 0", avg)
	}
	if m.L2().Stats().Accesses == 0 {
		t.Error("no logged miss reached the secondary cache")
	}
}
