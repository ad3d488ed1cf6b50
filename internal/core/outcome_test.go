package core

import (
	"context"
	"testing"

	"streamsim/internal/mem"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

func TestLevelString(t *testing.T) {
	cases := map[Level]string{
		LevelUnsampled: "unsampled",
		LevelL1:        "L1",
		LevelVictim:    "victim",
		LevelStream:    "stream",
		LevelMemory:    "memory",
		LevelNone:      "none",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, got, want)
		}
	}
	if Level(99).String() == "" {
		t.Error("unknown level should still format")
	}
}

func TestAccessOutcomeLevels(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	a := mem.Addr(1 << 20)

	out := s.AccessOutcome(mem.Access{Addr: a, Kind: mem.Read})
	if out.Level != LevelMemory {
		t.Errorf("cold miss level = %v, want memory", out.Level)
	}
	out = s.AccessOutcome(mem.Access{Addr: a, Kind: mem.Read})
	if out.Level != LevelL1 {
		t.Errorf("repeat access level = %v, want L1", out.Level)
	}
	out = s.AccessOutcome(mem.Access{Addr: a + 64, Kind: mem.Read})
	if out.Level != LevelStream {
		t.Errorf("prefetched block level = %v, want stream", out.Level)
	}
}

func TestAccessOutcomeVictimLevel(t *testing.T) {
	cfg := tinyConfig(2)
	cfg.VictimEntries = 4
	s := mustNew(t, cfg)
	a, b := mem.Addr(1<<20), mem.Addr(1<<20+4096) // conflicting set
	s.Access(mem.Access{Addr: a, Kind: mem.Read})
	s.Access(mem.Access{Addr: b, Kind: mem.Read}) // evicts a into victim
	out := s.AccessOutcome(mem.Access{Addr: a, Kind: mem.Read})
	if out.Level != LevelVictim {
		t.Errorf("level = %v, want victim", out.Level)
	}
}

func TestAccessOutcomePrefetchCount(t *testing.T) {
	s := mustNew(t, tinyConfig(2))
	out := s.AccessOutcome(mem.Access{Addr: 1 << 20, Kind: mem.Read})
	if out.Prefetches != 2 {
		t.Errorf("allocation issued %d prefetches, want 2 (depth)", out.Prefetches)
	}
	out = s.AccessOutcome(mem.Access{Addr: 1<<20 + 64, Kind: mem.Read})
	if out.Prefetches != 1 {
		t.Errorf("stream hit issued %d prefetches, want 1 (refill)", out.Prefetches)
	}
}

func TestAccessOutcomeWriteBack(t *testing.T) {
	s := mustNew(t, tinyConfig(0))
	a := mem.Addr(1 << 20)
	s.Access(mem.Access{Addr: a, Kind: mem.Write})
	out := s.AccessOutcome(mem.Access{Addr: a + 4096, Kind: mem.Read})
	if !out.WroteBack {
		t.Error("dirty eviction not reported in outcome")
	}
}

func TestAccessOutcomePending(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.Streams.Latency = 1000
	s := mustNew(t, cfg)
	s.Access(mem.Access{Addr: 1 << 20, Kind: mem.Read})
	out := s.AccessOutcome(mem.Access{Addr: 1<<20 + 64, Kind: mem.Read})
	if out.Level != LevelStream || !out.Pending {
		t.Errorf("outcome = %+v, want pending stream hit", out)
	}
}

// TestTrafficHooksSeeAllBlocks checks the ledger/traffic lockstep on
// every backend path at run time. For each hardware shape, every
// system of a three-system fan-out — a leader that simulates the
// shared L1 front and two followers that replay its tapped backend
// events — must post one block to the traffic hook for each demand
// fetch and each write-back its ledger counts, and one to the prefetch
// hook for each prefetch issued. The hooks keep the replay on its exact sequential
// path, and the trace's writes and instruction fetches exercise
// write-backs and both L1s.
func TestTrafficHooksSeeAllBlocks(t *testing.T) {
	w, err := workload.New("appbt", workload.SizeSmall)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStore(0)
	if err := w.Run(st, 0.02); err != nil {
		t.Fatal(err)
	}
	victim := tinyConfig(2)
	victim.VictimEntries = 4
	parted := tinyConfig(2)
	parted.PartitionedStreams = true
	filtered := tinyConfig(2)
	filtered.UnitFilterEntries = 16
	filtered.Stride = CzoneScheme
	filtered.StrideFilterEntries = 16
	filtered.CzoneBits = 16
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"streams", tinyConfig(2)},
		{"victim", victim},
		{"no-streams", tinyConfig(0)},
		{"partitioned", parted},
		{"filtered", filtered},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var demand, prefetch [3]uint64
			systems := make([]*System, len(demand))
			for i := range systems {
				cfg := tc.cfg
				cfg.OnMemoryTraffic = func(mem.Addr) { demand[i]++ }
				cfg.Streams.OnPrefetch = func(mem.Addr) { prefetch[i]++ }
				systems[i] = mustNew(t, cfg)
			}
			if err := ReplayStoreMultiWindowed(context.Background(), systems, st, ShardOptions{}); err != nil {
				t.Fatal(err)
			}
			for i, s := range systems {
				r := s.Results()
				if r.Bandwidth.WriteBacks == 0 || r.L1I.Misses == 0 {
					t.Errorf("system %d: %d write-backs, %d L1I misses; the trace must exercise both",
						i, r.Bandwidth.WriteBacks, r.L1I.Misses)
				}
				if ledger := r.Bandwidth.DemandFetches + r.Bandwidth.WriteBacks; demand[i] != ledger {
					t.Errorf("system %d: traffic hook saw %d blocks, ledger has %d (%d fetches + %d write-backs)",
						i, demand[i], ledger, r.Bandwidth.DemandFetches, r.Bandwidth.WriteBacks)
				}
				if prefetch[i] != r.Streams.PrefetchesIssued {
					t.Errorf("system %d: prefetch hook saw %d, ledger has %d", i, prefetch[i], r.Streams.PrefetchesIssued)
				}
			}
		})
	}
}
