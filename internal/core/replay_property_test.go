package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/stream"
)

// randomConfig derives a valid Config from r, spanning every front
// shape the replay engine can checkpoint: bare L1s, plain and
// partitioned streams, victim caches, the unit-stride filter and all
// three stride schemes, over varied cache geometries and replacement
// policies. The draw respects core.New's validation rules (filters
// and partitioning require streams; czone bits stay in range).
func randomConfig(r *rand.Rand) core.Config {
	cfg := core.DefaultConfig()

	sizes := []uint{16 << 10, 32 << 10, 64 << 10}
	assocs := []uint{1, 2, 4}
	repls := []cache.Replacement{cache.LRU, cache.Random, cache.FIFO}
	for _, c := range []*cache.Config{&cfg.L1I, &cfg.L1D} {
		c.SizeBytes = sizes[r.Intn(len(sizes))]
		c.Assoc = assocs[r.Intn(len(assocs))]
		c.Replacement = repls[r.Intn(len(repls))]
		c.Seed = 1 + r.Int63n(1<<20)
	}

	if n := r.Intn(11); n > 0 {
		cfg.Streams = stream.Config{Streams: n, Depth: 1 + r.Intn(3)}
		if r.Intn(2) == 1 {
			cfg.Streams.Realloc = stream.ReallocFIFO
		}
		cfg.PartitionedStreams = r.Intn(2) == 1
	} else {
		cfg.Streams = stream.Config{}
		cfg.PartitionedStreams = false
	}

	cfg.VictimEntries = []int{0, 1, 4, 8}[r.Intn(4)]

	// Filter fronts only make sense in front of streams.
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	cfg.StrideFilterEntries = 0
	cfg.CzoneBits = 0
	cfg.MinDeltaMax = 0
	if cfg.Streams.Streams > 0 {
		cfg.UnitFilterEntries = []int{0, 8, 16}[r.Intn(3)]
		switch r.Intn(3) {
		case 1:
			cfg.Stride = core.CzoneScheme
			cfg.StrideFilterEntries = 4 + r.Intn(16)
			cfg.CzoneBits = uint(10 + r.Intn(17)) // paper's 10..26-bit range
		case 2:
			cfg.Stride = core.MinDeltaScheme
			cfg.StrideFilterEntries = 4 + r.Intn(16)
			cfg.MinDeltaMax = int64(1 + r.Intn(512))
		}
	}
	return cfg
}

// describeConfig renders the front shape for failure messages.
func describeConfig(cfg core.Config) string {
	return fmt.Sprintf("streams=%d/%d part=%v victim=%d ufilter=%d stride=%v/%d",
		cfg.Streams.Streams, cfg.Streams.Depth, cfg.PartitionedStreams,
		cfg.VictimEntries, cfg.UnitFilterEntries, cfg.Stride, cfg.StrideFilterEntries)
}

// TestCheckpointResumeRandomConfigs is the randomized complement to
// TestCheckpointResumeMatchesScratch's fixed grid: for seeded-random
// configurations — including victim-cache and filter fronts the grid
// holds fixed — replaying a prefix, checkpointing, restoring and
// replaying the tail must be byte-identical to one uninterrupted
// sequential replay. Any snapshot handler that drops or double-counts
// a piece of System state shows up here as a Results mismatch.
//
//simlint:deterministic streamsim/internal/core.ReplayStoreMultiPrefixFrom
//simlint:deterministic (*streamsim/internal/core.Checkpoint).Restore
func TestCheckpointResumeRandomConfigs(t *testing.T) {
	const (
		seed     = 0x5eedc0de
		nConfigs = 12
		scale    = 0.05
	)
	ctx := context.Background()
	r := rand.New(rand.NewSource(seed))

	st := recordTrace(t, "mgrid", scale)
	K := st.WindowCount()
	if K < 2 {
		t.Fatalf("trace has %d windows; the property needs a non-empty prefix and tail", K)
	}

	sawVictim, sawFilter, sawStride := false, false, false
	for i := 0; i < nConfigs; i++ {
		cfg := randomConfig(r)
		sawVictim = sawVictim || cfg.VictimEntries > 0
		sawFilter = sawFilter || cfg.UnitFilterEntries > 0
		sawStride = sawStride || cfg.Stride != core.NoStrideDetection
		// A split point anywhere strictly inside (0, K) — not just the
		// fixed grid's midpoint.
		F := 1 + r.Intn(K-1)

		// Scratch reference: one uninterrupted sequential replay.
		ref, err := core.New(cfg)
		if err != nil {
			t.Fatalf("config %d (%s): %v", i, describeConfig(cfg), err)
		}
		if err := core.ReplayStore(ctx, ref, st); err != nil {
			t.Fatalf("config %d (%s): scratch replay: %v", i, describeConfig(cfg), err)
		}
		want := ref.Results()

		// Prefix, checkpoint, restore, tail.
		sys, err := core.New(cfg)
		if err != nil {
			t.Fatalf("config %d (%s): %v", i, describeConfig(cfg), err)
		}
		if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{sys}, st, 0, F); err != nil {
			t.Fatalf("config %d (%s): prefix replay: %v", i, describeConfig(cfg), err)
		}
		restored := sys.Checkpoint().Restore()
		if err := core.ReplayStoreMultiPrefixFrom(ctx, []*core.System{restored}, st, F, K); err != nil {
			t.Fatalf("config %d (%s): tail replay: %v", i, describeConfig(cfg), err)
		}
		if got := restored.Results(); !reflect.DeepEqual(got, want) {
			t.Errorf("config %d (%s), split at window %d/%d: checkpoint-resume diverges from sequential replay:\ngot  %+v\nwant %+v",
				i, describeConfig(cfg), F, K, got, want)
		}
	}

	// The draw must actually have exercised the fronts the fixed grid
	// pins down individually; a sampler regression that stops emitting
	// them would quietly weaken the property.
	if !sawVictim || !sawFilter || !sawStride {
		t.Errorf("random draw missed a front shape: victim=%v filter=%v stride=%v (seed %#x, %d configs)",
			sawVictim, sawFilter, sawStride, seed, nConfigs)
	}
}
