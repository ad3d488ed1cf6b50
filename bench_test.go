// Package bench is the paper's benchmark harness: one testing.B
// benchmark per evaluation table, figure and extension (regenerating
// the artefact at a reduced trace scale), the ablation benches
// DESIGN.md calls out, and microbenchmarks of the simulator's hot
// paths.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The artefact benches report custom metrics (hit rates, EB) via
// b.ReportMetric, so `-bench` output doubles as a compact results
// summary. For full-scale tables use cmd/paperexp.
package bench

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/experiments"
	"streamsim/internal/filter"
	"streamsim/internal/mem"
	"streamsim/internal/search"
	"streamsim/internal/stream"
	"streamsim/internal/timing"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// benchScale keeps each artefact bench iteration around a second.
const benchScale = 0.1

// benchOpts are shared by the artefact benches.
var benchOpts = experiments.Options{Scale: benchScale}

// runExperiment is the shared body of the per-artefact benches.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), benchOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (benchmark characteristics).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig3 regenerates Figure 3 (hit rate vs number of streams).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkTable2 regenerates Table 2 (extra bandwidth of ordinary
// streams).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig5 regenerates Figure 5 (filter effect on hit rate/EB).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkTable3 regenerates Table 3 (stream length distribution).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig8 regenerates Figure 8 (non-unit stride detection).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (czone size sensitivity).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable4 regenerates Table 4 (streams vs secondary cache).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkExtCPI regenerates the effective-CPI extension (three
// timing models per benchmark).
func BenchmarkExtCPI(b *testing.B) { runExperiment(b, "extcpi") }

// BenchmarkExtBase regenerates the OBL and RPT prefetcher baselines.
func BenchmarkExtBase(b *testing.B) { runExperiment(b, "extbase") }

// BenchmarkExtCost regenerates the equal-cost L2-node vs stream-node
// comparison.
func BenchmarkExtCost(b *testing.B) { runExperiment(b, "extcost") }

// BenchmarkExtScale regenerates the shared-memory scalability
// extension.
func BenchmarkExtScale(b *testing.B) { runExperiment(b, "extscale") }

// BenchmarkExtBank regenerates the interleaved-memory bank behaviour
// extension.
func BenchmarkExtBank(b *testing.B) { runExperiment(b, "extbank") }

// --- ablation benches -------------------------------------------------

// ablationWorkloads are a representative spread: one long-stream code,
// one short-stream code, one strided code, one irregular code.
var ablationWorkloads = []string{"mgrid", "appbt", "fftpde", "bdna"}

// runAblation traces each ablation workload through cfg and reports
// the mean stream hit rate as a custom metric.
func runAblation(b *testing.B, cfg core.Config) {
	b.Helper()
	var hit float64
	for i := 0; i < b.N; i++ {
		hit = 0
		for _, name := range ablationWorkloads {
			w, err := workload.New(name, workload.SizeSmall)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Run(sys, benchScale); err != nil {
				b.Fatal(err)
			}
			hit += sys.Results().StreamHitRate()
		}
		hit /= float64(len(ablationWorkloads))
	}
	b.ReportMetric(hit, "hit%")
}

// BenchmarkAblationDepth sweeps the stream FIFO depth the paper fixes
// at two. Depth only matters against memory latency ("a stream should
// be deep enough so that it can cover the main memory latency"), so
// this ablation models a 30-reference prefetch latency and reports the
// ready-hit rate: hits whose data had actually returned.
func BenchmarkAblationDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Streams = stream.Config{Streams: 10, Depth: depth, Latency: 30}
			var ready float64
			for i := 0; i < b.N; i++ {
				ready = 0
				for _, name := range ablationWorkloads {
					w, err := workload.New(name, workload.SizeSmall)
					if err != nil {
						b.Fatal(err)
					}
					sys, err := core.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := w.Run(sys, benchScale); err != nil {
						b.Fatal(err)
					}
					r := sys.Results()
					if r.Streams.Probes > 0 {
						ready += 100 * float64(r.Streams.Hits-r.Streams.PendingHits) /
							float64(r.Streams.Probes)
					}
				}
				ready /= float64(len(ablationWorkloads))
			}
			b.ReportMetric(ready, "ready-hit%")
		})
	}
}

// BenchmarkAblationFilterSize sweeps the unit-stride filter size
// around the paper's 8-16 sweet spot.
func BenchmarkAblationFilterSize(b *testing.B) {
	for _, size := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.UnitFilterEntries = size
			runAblation(b, cfg)
		})
	}
}

// BenchmarkAblationFilterOrder compares the paper's arrangement (czone
// filter behind the unit-stride filter) with the czone scheme alone.
func BenchmarkAblationFilterOrder(b *testing.B) {
	b.Run("czone-behind-unit-filter", func(b *testing.B) {
		runAblation(b, core.DefaultConfig())
	})
	b.Run("czone-alone", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.UnitFilterEntries = 0
		runAblation(b, cfg)
	})
}

// BenchmarkAblationRealloc compares LRU stream reallocation (the
// paper's policy) with FIFO.
func BenchmarkAblationRealloc(b *testing.B) {
	for _, pol := range []stream.Realloc{stream.ReallocLRU, stream.ReallocFIFO} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Streams.Realloc = pol
			runAblation(b, cfg)
		})
	}
}

// BenchmarkAblationMinDelta compares the czone partition scheme with
// the minimum-delta alternative the paper rejected on hardware cost.
func BenchmarkAblationMinDelta(b *testing.B) {
	b.Run("czone", func(b *testing.B) {
		runAblation(b, core.DefaultConfig())
	})
	b.Run("min-delta", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Stride = core.MinDeltaScheme
		runAblation(b, cfg)
	})
}

// BenchmarkAblationPartitioned verifies the paper's finding that
// partitioned instruction/data streams (the MacroTek arrangement) are
// not beneficial: the large on-chip instruction cache leaves too few
// instruction misses to justify a second set.
func BenchmarkAblationPartitioned(b *testing.B) {
	for _, part := range []bool{false, true} {
		name := "unified"
		if part {
			name = "partitioned"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.PartitionedStreams = part
			runAblation(b, cfg)
		})
	}
}

// BenchmarkAblationVictimDM measures Jouppi's victim cache on a
// direct-mapped L1 (the configuration the paper's 4-way choice
// sidesteps): the victim buffer recovers conflict misses the streams
// cannot.
func BenchmarkAblationVictimDM(b *testing.B) {
	for _, entries := range []int{0, 4, 16} {
		b.Run(fmt.Sprintf("victim=%d", entries), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.L1I.Assoc = 1
			cfg.L1I.Replacement = cache.LRU
			cfg.L1D.Assoc = 1
			cfg.L1D.Replacement = cache.LRU
			cfg.VictimEntries = entries
			var miss float64
			for i := 0; i < b.N; i++ {
				miss = 0
				for _, name := range ablationWorkloads {
					w, err := workload.New(name, workload.SizeSmall)
					if err != nil {
						b.Fatal(err)
					}
					sys, err := core.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if err := w.Run(sys, benchScale); err != nil {
						b.Fatal(err)
					}
					r := sys.Results()
					// Effective miss rate: misses the victim cache
					// could not recover.
					if r.L1D.Accesses > 0 {
						miss += 100 * float64(r.L1D.Misses-r.VictimD.Hits) /
							float64(r.L1D.Accesses)
					}
				}
				miss /= float64(len(ablationWorkloads))
			}
			b.ReportMetric(miss, "eff-miss%")
		})
	}
}

// --- microbenchmarks ---------------------------------------------------

// BenchmarkCacheAccess measures the set-associative lookup hot path.
func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.Config{
		Name: "L1D", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64,
		Replacement: cache.LRU, Write: cache.WriteBack, Alloc: cache.WriteAllocate,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i%4096) * 64)
	}
}

// BenchmarkStreamProbe measures the multi-way head-compare path on the
// traffic a workload sends it: ten interleaved unit streams, one per
// buffer, each probed in turn, so every probe compares all ten live
// heads and hits.
func BenchmarkStreamProbe(b *testing.B) {
	const streams = 10
	s, err := stream.NewSet(mem.DefaultGeometry(), stream.Config{Streams: streams, Depth: 2})
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < streams; j++ {
		s.AllocateUnit(mem.Addr(j) << 32)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := mem.Addr(i%streams)<<32 + mem.Addr(i/streams) + 1
		if !s.ProbeOutcome(blk).Hit {
			b.Fatal("bench stream broke")
		}
	}
}

// BenchmarkStreamInvalidate measures write-back invalidation over a
// full ten-stream set, in its common case: the written-back block is in
// no stream, so every call compares all twenty entries and clears none.
func BenchmarkStreamInvalidate(b *testing.B) {
	const streams = 10
	s, err := stream.NewSet(mem.DefaultGeometry(), stream.Config{Streams: streams, Depth: 2})
	if err != nil {
		b.Fatal(err)
	}
	for j := 0; j < streams; j++ {
		s.AllocateUnit(mem.Addr(j) << 32)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InvalidateBlock(mem.Addr(i%streams)<<32 + 1<<20)
	}
	if s.Stats().Invalidations != 0 {
		b.Fatal("bench invalidated a stream entry")
	}
}

// BenchmarkUnitFilterLookup measures the filter's history search.
func BenchmarkUnitFilterLookup(b *testing.B) {
	f, err := filter.NewUnitStride(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Lookup(mem.Addr(i * 977)) // never consecutive: worst case
	}
}

// BenchmarkCzoneObserve measures the non-unit-stride FSM.
func BenchmarkCzoneObserve(b *testing.B) {
	f, err := filter.NewNonUnitStride(16, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(mem.Addr(1<<20 + i*300))
	}
}

// BenchmarkSystemThroughput measures full-system references per second
// on a mixed (sweep + scatter) synthetic stream.
func BenchmarkSystemThroughput(b *testing.B) {
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := mem.Addr(1<<24 + i*8)
		if i&7 == 0 {
			a = mem.Addr(1<<26 + (i*7919)&(1<<22-1))
		}
		sys.Access(mem.Access{Addr: a, Kind: mem.Read})
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkSystemThroughputBatch is BenchmarkSystemThroughput through
// the batched entry point: the same reference stream delivered in
// trace.ReplayBatchLen chunks via System.AccessBatch, the shape every
// replay loop uses.
func BenchmarkSystemThroughputBatch(b *testing.B) {
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]mem.Access, trace.ReplayBatchLen)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		n := len(batch)
		if rem := b.N - i; rem < n {
			n = rem
		}
		for j := 0; j < n; j++ {
			k := i + j
			a := mem.Addr(1<<24 + k*8)
			if k&7 == 0 {
				a = mem.Addr(1<<26 + (k*7919)&(1<<22-1))
			}
			batch[j] = mem.Access{Addr: a, Kind: mem.Read}
		}
		sys.AccessBatch(batch[:n])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// replayTrace memoizes one recorded workload trace for the replay
// benchmarks: mgrid at full experiment scale — long unit-stride
// streams with stencil reuse, the trace shape every experiment
// replays most. Full scale matters for the replay comparison: the
// materialized []mem.Access mirror is tens of megabytes (it streams
// from DRAM, exactly as it did when the experiments kept traces that
// way), while the compact store is a few megabytes and stays
// cache-resident. A reduced-scale fixture would let the materialized
// slice sit in the last-level cache and measure a regime the
// experiments never run in.
var replayTrace struct {
	once  sync.Once
	store *trace.Store
	accs  []mem.Access
	err   error
}

func replayFixture(b *testing.B) (*trace.Store, []mem.Access) {
	b.Helper()
	replayTrace.once.Do(func() {
		w, err := workload.New("mgrid", workload.SizeSmall)
		if err != nil {
			replayTrace.err = err
			return
		}
		// A trace.Store is itself a mem.Sink, so the run records
		// straight into the compact encoding.
		st := trace.NewStore(int(workload.EstimateRefs("mgrid", workload.SizeSmall, 1.0)))
		if err := w.Run(st, 1.0); err != nil {
			replayTrace.err = err
			return
		}
		replayTrace.store = st
		buf := make([]mem.Access, trace.ReplayBatchLen)
		it := st.Iter()
		for n := it.Next(buf); n > 0; n = it.Next(buf) {
			replayTrace.accs = append(replayTrace.accs, buf[:n]...)
		}
	})
	if replayTrace.err != nil {
		b.Fatal(replayTrace.err)
	}
	return replayTrace.store, replayTrace.accs
}

// BenchmarkTraceReplay measures the experiment replay path end to end
// (core.ReplayStore): decode the compact trace store in batches — on
// the PC-skipping fast path, since a System never reads PCs — and feed
// System.AccessBatch. One op is one full-trace replay; refs/s is the
// headline simulator throughput number cmd/benchrun tracks.
func BenchmarkTraceReplay(b *testing.B) {
	store, _ := replayFixture(b)
	refs := store.Len()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := core.ReplayStore(ctx, sys, store); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkTraceReplayScalar replays the same trace the way the
// experiments did before batching existed: a materialized []mem.Access
// walked with one System.Access call per reference. Kept as the
// comparison point for BenchmarkTraceReplay (it is also the memory
// shape the compact store replaced: 24 bytes per reference).
func BenchmarkTraceReplayScalar(b *testing.B) {
	_, accs := replayFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := core.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range accs {
			sys.Access(a)
		}
	}
	b.ReportMetric(float64(len(accs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// benchReplayMulti measures the multi-config fan-out: one decode pass
// drives nSys systems through the exact sequential replay — the win
// being measured is decode elimination and the shared-front tap, not
// goroutines. refs/s is aggregate: trace length × nSys per op.
func benchReplayMulti(b *testing.B, nSys int) {
	store, _ := replayFixture(b)
	refs := store.Len()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		systems := make([]*core.System, nSys)
		for j := range systems {
			sys, err := core.New(core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			systems[j] = sys
		}
		if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, store, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(refs)*float64(nSys)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkReplayMulti2 fans one decode out to 2 systems — the
// fig5/fig8 shape (plain vs filtered).
func BenchmarkReplayMulti2(b *testing.B) { benchReplayMulti(b, 2) }

// BenchmarkReplayMulti8 fans one decode out to 8 systems — the
// fig3/fig9 shape (a full x-axis sweep per benchmark).
func BenchmarkReplayMulti8(b *testing.B) { benchReplayMulti(b, 8) }

// BenchmarkReplayTimed3 is the timed layer: the extcpi shape, three
// timing models (bare L1, ten plain streams, the filtered czone
// configuration) over one decode of the replay fixture through
// timing.Replay, so the paper's L1s are simulated once and each model
// is charged its own misses. refs/s is aggregate: trace length × 3
// per op.
func BenchmarkReplayTimed3(b *testing.B) {
	store, _ := replayFixture(b)
	bare := core.DefaultConfig()
	bare.Streams = stream.Config{}
	bare.UnitFilterEntries, bare.Stride = 0, core.NoStrideDetection
	plain := core.DefaultConfig()
	plain.UnitFilterEntries, plain.Stride = 0, core.NoStrideDetection
	cfgs := []core.Config{bare, plain, core.DefaultConfig()}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		models := make([]*timing.Model, len(cfgs))
		for j, cfg := range cfgs {
			m, err := timing.New(cfg, timing.DefaultLatencies())
			if err != nil {
				b.Fatal(err)
			}
			models[j] = m
		}
		if err := timing.Replay(ctx, models, store, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Len())*float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// benchHalving runs one full successive-halving optimization per op —
// the optimize-smoke incremental configuration (applu's 8-window small
// input, a 9-value streams space, budget 24), whose rung schedule
// floors so the checkpoint, resume and eval-memo paths are all
// exercised. The scratch/incremental pair is the committed evidence
// for DESIGN.md §12: same spec, same result, only the replay work
// differs (~2.1x fewer references incremental).
func benchHalving(b *testing.B, scratch bool) {
	b.Helper()
	spec := search.Spec{
		Workload: "applu",
		Scale:    0.05,
		Space:    []search.Dim{{Param: "streams", Values: []int{1, 2, 3, 4, 5, 6, 8, 12, 16}}},
		Budget:   24,
		Seed:     3,
		Scratch:  scratch,
	}
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHalvingScratch re-simulates every rung from window 0 (the
// pre-checkpoint optimizer), the baseline for HalvingIncremental.
func BenchmarkHalvingScratch(b *testing.B) { benchHalving(b, true) }

// BenchmarkHalvingIncremental runs the same optimization with the
// checkpointed incremental-replay layer on.
func BenchmarkHalvingIncremental(b *testing.B) { benchHalving(b, false) }

// warmSystem is a DefaultConfig system that has replayed the mgrid
// replay fixture: caches, stream buffers and filter histories full and
// every counter nonzero — the state the optimizer checkpoints.
func warmSystem(b *testing.B) *core.System {
	b.Helper()
	store, _ := replayFixture(b)
	sys, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := core.ReplayStore(context.Background(), sys, store); err != nil {
		b.Fatal(err)
	}
	return sys
}

// snapshotSink keeps the snapshot benchmarks' results live.
var snapshotSink *core.System

// BenchmarkFork measures System.Fork, the deep copy of architectural
// state with zeroed counters.
func BenchmarkFork(b *testing.B) {
	sys := warmSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = sys.Fork()
	}
}

// BenchmarkMerge measures System.Merge, which folds one system's
// counters into another's.
func BenchmarkMerge(b *testing.B) {
	sys := warmSystem(b)
	chunk := sys.Checkpoint().Restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Merge(chunk)
	}
}

// BenchmarkCheckpointRestore measures the round trip a halving rung
// pays per surviving candidate: snapshot a warm system, then
// materialize a live system from the snapshot.
func BenchmarkCheckpointRestore(b *testing.B) {
	sys := warmSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = sys.Checkpoint().Restore()
	}
}

// BenchmarkTraceDecode isolates the decode half of BenchmarkTraceReplay:
// the PC-skipping batch decode of the same recorded trace, with no
// simulator attached. The difference between this and TraceReplay is
// the simulation cost; the difference between this and zero is what
// the compact encoding charges per reference at replay time.
func BenchmarkTraceDecode(b *testing.B) {
	store, _ := replayFixture(b)
	refs := store.Len()
	buf := make([]uint64, trace.ReplayBatchLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := store.Iter()
		for n := it.NextPacked(buf); n > 0; n = it.NextPacked(buf) {
		}
	}
	b.ReportMetric(float64(refs)*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkWorkloadGeneration measures trace-generation speed (the
// front half of every experiment).
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := workload.New("mgrid", workload.SizeSmall)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := core.New(core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(sys, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}
