// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment returns a tab.Table whose rows
// carry both the measured values and, where the paper prints a number,
// the published value for side-by-side comparison.
//
// Workload traces are recorded once per (benchmark, size, scale) and
// replayed across memory-system configurations, exactly as the paper
// replays its Shade traces through different simulator settings. The
// recordings come from sweeprun.Record, whose process-wide cache the
// sweeps and the optimizer share.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"streamsim/internal/cache"
	"streamsim/internal/core"
	"streamsim/internal/mem"
	"streamsim/internal/stream"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
	"streamsim/internal/timing"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// Options tune how expensively the experiments run.
type Options struct {
	// Scale is the workload iteration scale in (0, 1]; 1 reproduces
	// the full traces, smaller values run faster for smoke tests.
	Scale float64
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	return o
}

// Experiment identifies one paper artefact.
type Experiment struct {
	// ID is the harness name (e.g. "fig3", "table4").
	ID string
	// Paper names the artefact in the paper.
	Paper string
	// Run executes the experiment. Cancelling ctx aborts the trace
	// generation and replay loops within one batch boundary and
	// returns ctx.Err().
	Run func(ctx context.Context, o Options) (*tab.Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: benchmark characteristics", Table1},
		{"fig3", "Figure 3: hit rate vs number of streams", Figure3},
		{"table2", "Table 2: extra bandwidth of ordinary streams", Table2},
		{"fig5", "Figure 5: filter effect on hit rate and EB", Figure5},
		{"table3", "Table 3: stream length distribution", Table3},
		{"fig8", "Figure 8: non-unit stride detection", Figure8},
		{"fig9", "Figure 9: hit rate vs czone size", Figure9},
		{"table4", "Table 4: streams versus secondary cache", Table4},
		{"extcpi", "Extension: effective CPI under a timing model", CPI},
		{"extbase", "Extension: OBL and RPT prefetcher baselines", Baselines},
		{"extcost", "Extension: equal-cost L2 node vs stream node", EqualCost},
		{"extscale", "Extension: shared-memory scalability with and without the filter", Scalability},
		{"extbank", "Extension: interleaved-memory bank behaviour of the traffic", BankBehaviour},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// table1Size returns the input size each benchmark is traced at for
// the single-input experiments (Tables 1-3, Figures 3-9). The paper's
// Table 1 inputs correspond to SizeLarge for the three NAS solvers it
// lists at bigger grids; everything else runs its small input.
func table1Size(name string) workload.Size {
	switch name {
	case "appsp", "appbt", "applu":
		return workload.SizeLarge
	default:
		return workload.SizeSmall
	}
}

// each decodes the trace in batches and calls fn on every access in
// order — the shared iteration shape for consumers that want scalar
// visits (miss-stream derivation, the prefetcher baselines) without
// paying per-access decode state. ctx is polled once per batch; a
// cancelled walk returns ctx.Err().
func each(ctx context.Context, tr *trace.Store, fn func(a *mem.Access)) error {
	done := ctx.Done()
	buf := make([]mem.Access, trace.ReplayBatchLen)
	it := tr.Iter()
	for n := it.Next(buf); n > 0; n = it.Next(buf) {
		for i := 0; i < n; i++ {
			fn(&buf[i])
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	replayedRefs.Add(uint64(tr.Len()))
	return nil
}

// replayMulti feeds the whole trace into every system from one decode
// per batch (core.ReplayStoreMultiPrefixFrom): N configs share each
// decoded 512-reference slice while it is L1-hot, in one exact
// sequential pass, so the published numbers are machine-independent.
func replayMulti(ctx context.Context, systems []*core.System, tr *trace.Store) error {
	if err := core.ReplayStoreMultiPrefixFrom(ctx, systems, tr, 0, 0); err != nil {
		return err
	}
	for _, sys := range systems {
		sys.AddInstructions(tr.Instructions())
	}
	replayedRefs.Add(uint64(tr.Len()) * uint64(len(systems)))
	return nil
}

// replayTimed replays the whole trace through every timing model
// (timing.Replay): one decode per batch, one simulation of each shared
// L1 front, and the trace's instructions spread evenly over its
// references.
func replayTimed(ctx context.Context, models []*timing.Model, tr *trace.Store) error {
	if err := timing.Replay(ctx, models, tr); err != nil {
		return err
	}
	replayedRefs.Add(uint64(tr.Len()) * uint64(len(models)))
	return nil
}

// replayedRefs counts references replayed (or scalar-walked) through
// completed trace passes, process-wide. The simd service exposes it as
// a throughput metric; the add-per-completed-pass granularity keeps
// the replay loop free of per-batch atomics.
var replayedRefs atomic.Uint64

// ReplayedRefs returns the total references replayed through completed
// trace passes since process start.
func ReplayedRefs() uint64 { return replayedRefs.Load() }

// TraceCacheHits returns how many trace lookups were served from the
// process-wide recording cache (sweeprun.Record) since process start,
// counting sweep and optimizer lookups as well as experiment runs.
func TraceCacheHits() uint64 { return sweeprun.TraceCacheStats().Hits }

// record returns the recording of a benchmark from the process-wide
// recording cache, which sweeps and the optimizer share.
func record(ctx context.Context, name string, size workload.Size, scale float64) (*trace.Store, error) {
	_, tr, err := sweeprun.Record(ctx, name, size.String(), scale)
	return tr, err
}

// ResetTraceCache drops every cached recording (used by benchmarks
// that want to measure generation cost).
func ResetTraceCache() { sweeprun.ResetTraceCache() }

// addRows computes one row of t per weight across up to GOMAXPROCS
// workers and appends them in index order, so the table is the same at
// any worker count. It is how every artefact visits its benchmarks:
// each row builds its own systems and models, and rows share only the
// recording cache, which is safe for concurrent use.
//
// Workers start rows heaviest first, Graham's longest-processing-time
// rule, so the longest row does not run alone at the end of the
// artefact; equal weights start in index order. Callers weigh a row by
// its input's workload.EstimateRefs, which needs no recording.
//
// Workers stop taking rows once ctx is cancelled (rows already running
// observe ctx through the replay loops). The lowest-index error is
// returned, else ctx.Err(); on error t is left as it was.
func addRows(ctx context.Context, t *tab.Table, weights []uint64, row func(i int) ([]string, error)) error {
	n := len(weights)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(weights[b], weights[a]) })
	rows := make([][]string, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				i := order[k]
				rows[i], errs[i] = row(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t.Rows = append(t.Rows, rows...)
	return nil
}

// inputWeights weighs each named benchmark's Table 1 input by its
// reference count at scale: the addRows weights of the artefacts that
// visit benchmarks at their Table 1 inputs.
func inputWeights(names []string, scale float64) []uint64 {
	weights := make([]uint64, len(names))
	for i, name := range names {
		weights[i] = workload.EstimateRefs(name, table1Size(name), scale)
	}
	return weights
}

// Memory-system configuration builders, named after the paper's setups.

// plainStreams is Section 5: n streams of depth 2, no filters.
func plainStreams(n int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = stream.Config{Streams: n, Depth: 2}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

// filteredStreams is Section 6: 10 streams behind a 16-entry
// unit-stride filter.
func filteredStreams() core.Config {
	cfg := plainStreams(10)
	cfg.UnitFilterEntries = 16
	return cfg
}

// stridedStreams is Section 7: the filtered configuration plus a
// 16-entry non-unit-stride (czone) filter.
func stridedStreams(czoneBits uint) core.Config {
	cfg := filteredStreams()
	cfg.Stride = core.CzoneScheme
	cfg.StrideFilterEntries = 16
	cfg.CzoneBits = czoneBits
	return cfg
}

// noStreams is the bare L1 + memory system used for Table 1.
func noStreams() core.Config {
	cfg := core.DefaultConfig()
	cfg.Streams = stream.Config{}
	cfg.UnitFilterEntries = 0
	cfg.Stride = core.NoStrideDetection
	return cfg
}

// runConfig replays a benchmark trace through a configuration.
func runConfig(ctx context.Context, name string, size workload.Size, opt Options, cfg core.Config) (core.Results, error) {
	tr, err := record(ctx, name, size, opt.Scale)
	if err != nil {
		return core.Results{}, err
	}
	sys, err := core.New(cfg)
	if err != nil {
		return core.Results{}, err
	}
	if err := replayMulti(ctx, []*core.System{sys}, tr); err != nil {
		return core.Results{}, err
	}
	return sys.Results(), nil
}

// runConfigs replays one benchmark trace through every configuration,
// decoding each batch once for all of them. It is the multi-config
// analogue of runConfig; each entry of the returned slice is
// byte-identical to a runConfig call with the same configuration.
func runConfigs(ctx context.Context, name string, size workload.Size, opt Options, cfgs []core.Config) ([]core.Results, error) {
	tr, err := record(ctx, name, size, opt.Scale)
	if err != nil {
		return nil, err
	}
	systems := make([]*core.System, len(cfgs))
	for i, cfg := range cfgs {
		if systems[i], err = core.New(cfg); err != nil {
			return nil, err
		}
	}
	if err := replayMulti(ctx, systems, tr); err != nil {
		return nil, err
	}
	res := make([]core.Results, len(systems))
	for i, sys := range systems {
		res[i] = sys.Results()
	}
	return res, nil
}

// l2MissStream is the L1 miss-side traffic of one trace: the block
// fills and write-backs that a secondary cache would observe. Table 4
// derives one per row and replays it across L2 configurations.
type l2MissStream struct {
	events []l2Event
}

type l2Event struct {
	addr  mem.Addr
	write bool // write-back of a dirty victim
}

// missStream derives the L1 miss traffic of a benchmark trace.
func missStream(ctx context.Context, name string, size workload.Size, scale float64) (*l2MissStream, error) {
	tr, err := record(ctx, name, size, scale)
	if err != nil {
		return nil, err
	}
	cfg := noStreams()
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	geom := cfg.Geometry
	ms := &l2MissStream{}
	err = each(ctx, tr, func(a *mem.Access) {
		c := l1d
		if a.Kind == mem.IFetch {
			c = l1i
		}
		var res cache.Result
		if a.Kind == mem.Write {
			res = c.Write(uint64(a.Addr))
		} else {
			res = c.Read(uint64(a.Addr))
		}
		if !res.Sampled || res.Hit {
			return
		}
		if res.WroteBack {
			ms.events = append(ms.events, l2Event{
				addr:  geom.BlockToByte(mem.Addr(res.VictimBlock)),
				write: true,
			})
		}
		if res.Filled {
			ms.events = append(ms.events, l2Event{addr: geom.BlockBase(a.Addr)})
		}
	})
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// l2LocalHitRates replays a miss stream through several secondary
// cache configurations in one pass over the events — the Table 4
// search probes six (assoc, block) shapes per cache size, and the
// event list only has to stream through the host's caches once for
// all of them. Hit rates return in percent, in configuration order,
// identical to one call per configuration. ctx is polled every
// ReplayBatchLen events.
func (ms *l2MissStream) l2LocalHitRates(ctx context.Context, cfgs []cache.Config) ([]float64, error) {
	caches := make([]*cache.Cache, len(cfgs))
	for i, cfg := range cfgs {
		l2, err := cache.New(cfg)
		if err != nil {
			return nil, err
		}
		caches[i] = l2
	}
	done := ctx.Done()
	for i, ev := range ms.events {
		if ev.write {
			for _, l2 := range caches {
				l2.Write(uint64(ev.addr))
			}
		} else {
			for _, l2 := range caches {
				l2.Read(uint64(ev.addr))
			}
		}
		if i%trace.ReplayBatchLen == trace.ReplayBatchLen-1 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
	}
	hrs := make([]float64, len(caches))
	for i, l2 := range caches {
		hrs[i] = 100 * l2.Stats().HitRate()
	}
	return hrs, nil
}
