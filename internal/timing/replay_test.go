package timing_test

import (
	"context"
	"reflect"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/timing"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// oracleModel is one timing model of the oracle set: a memory system,
// an optional secondary cache and its latencies.
type oracleModel struct {
	cfg core.Config
	l2  *cache.Config
	lat timing.Latencies
}

// oracleModels spans two L1 front classes, interleaved so the replay
// must group them by front rather than by position:
//
//   - the paper's L1s (random replacement, deferred hits) under the
//     bare system, a 1 MB L2 node, plain streams and the full strided
//     configuration, at three bus speeds;
//   - LRU L1s with a 4-entry victim buffer, a set-sampled instruction
//     cache and a no-write-allocate data cache, so victim hits,
//     unsampled references and stores that fill nothing reach the
//     logs, under partitioned streams and under strided streams with
//     an L2.
func oracleModels() []oracleModel {
	paper := func(streams int) core.Config {
		cfg := core.DefaultConfig()
		cfg.Streams = stream.Config{Streams: streams, Depth: 2}
		cfg.UnitFilterEntries = 0
		cfg.Stride = core.NoStrideDetection
		return cfg
	}
	strided := core.DefaultConfig()
	lru := func(cfg core.Config) core.Config {
		cfg.L1I.Replacement, cfg.L1D.Replacement = cache.LRU, cache.LRU
		cfg.L1I.SampleEvery = 2
		cfg.L1D.Alloc = cache.NoWriteAllocate
		cfg.VictimEntries = 4
		return cfg
	}
	partitioned := lru(paper(4))
	partitioned.PartitionedStreams = true
	l2 := &cache.Config{
		Name: "L2", SizeBytes: 1 << 20, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	}
	lat := func(bus uint64) timing.Latencies {
		l := timing.DefaultLatencies()
		l.BusBlock = bus
		return l
	}
	return []oracleModel{
		{cfg: paper(0), lat: lat(8)},
		{cfg: partitioned, lat: lat(8)},
		{cfg: paper(0), l2: l2, lat: lat(3)},
		{cfg: lru(strided), l2: l2, lat: lat(8)},
		{cfg: paper(10), lat: lat(8)},
		{cfg: strided, lat: lat(0)},
	}
}

func newModels(t *testing.T, specs []oracleModel) []*timing.Model {
	t.Helper()
	models := make([]*timing.Model, len(specs))
	for i, s := range specs {
		var err error
		if s.l2 != nil {
			models[i], err = timing.NewWithL2(s.cfg, *s.l2, s.lat)
		} else {
			models[i], err = timing.New(s.cfg, s.lat)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return models
}

// replayAlone drives each model through Access on the schedule Replay
// promises: Instructions/Len instructions after every reference and
// the remainder after the last.
func replayAlone(models []*timing.Model, st *trace.Store) {
	insts, refs := st.Instructions(), uint64(st.Len())
	per := uint64(0)
	if refs > 0 {
		per = insts / refs
	}
	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := st.Iter()
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		for _, m := range models {
			for _, a := range buf[:n] {
				m.Access(a)
				m.AddInstructions(per)
			}
		}
	}
	for _, m := range models {
		m.AddInstructions(insts - refs*per)
	}
}

// TestReplayMatchesModelsAlone is the timed replay's oracle: on every
// Table 1 input, one Replay of the oracle set leaves each model's
// timing ledger, functional results and secondary cache exactly where
// driving that model alone through Access leaves them.
//
//simlint:deterministic streamsim/internal/timing.Replay
//simlint:deterministic streamsim/internal/core.ReplayStoreMultiLogged
func TestReplayMatchesModelsAlone(t *testing.T) {
	const scale = 0.02
	specs := oracleModels()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			size := workload.SizeSmall
			switch name {
			case "appsp", "appbt", "applu":
				size = workload.SizeLarge
			}
			w, err := workload.New(name, size)
			if err != nil {
				t.Fatal(err)
			}
			st := trace.NewStore(int(workload.EstimateRefs(name, size, scale)))
			if err := w.Run(st, scale); err != nil {
				t.Fatal(err)
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			want := newModels(t, specs)
			replayAlone(want, st)
			got := newModels(t, specs)
			if err := timing.Replay(context.Background(), got, st); err != nil {
				t.Fatal(err)
			}
			for i := range specs {
				if g, w := got[i].Stats(), want[i].Stats(); g != w {
					t.Errorf("model %d timing ledger:\ngot  %+v\nwant %+v", i, g, w)
				}
				if g, w := got[i].Results(), want[i].Results(); !reflect.DeepEqual(g, w) {
					t.Errorf("model %d results:\ngot  %+v\nwant %+v", i, g, w)
				}
				if specs[i].l2 == nil {
					continue
				}
				if g, w := got[i].L2().Stats(), want[i].L2().Stats(); g != w {
					t.Errorf("model %d L2:\ngot  %+v\nwant %+v", i, g, w)
				}
			}
		})
	}
}
