// The batched evaluator: realize a generation of candidates as
// core.Systems, feed them through the fan-out replay engine against
// the one recorded trace, and score each on every metric at once.
//
// The evaluator also owns the incremental-replay layer (DESIGN.md §12):
// a generation-spanning memo of finished evaluations keyed by canonical
// candidate key × window count, and one rung checkpoint per live
// candidate so successive halving extends survivors from their last
// scored window instead of re-simulating from window 0. Both are
// bookkeeping on the strategy goroutine only — replay workers never
// touch them — so results stay identical at any Spec.Parallel width,
// and Spec.Scratch disables the whole layer without changing a single
// score.
package search

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"streamsim/internal/core"
	"streamsim/internal/cost"
	"streamsim/internal/sweeprun"
	"streamsim/internal/trace"
)

// baselineBandwidthMBps fixes the priced memory bandwidth so cost
// varies only with the searched hardware (streams, filters, victim
// SRAM); it matches the T3D-class 300 MB/s node of the cost package's
// examples.
const baselineBandwidthMBps = 300

// evaluator scores candidates against one recorded trace. It is the
// single evaluation path for every strategy, so halving, pareto and
// grid results are comparable by construction.
type evaluator struct {
	spec   Spec
	tr     *trace.Store
	prices cost.Prices
	evals  int // running count, owned by the strategy goroutine

	// Incremental-replay state, all owned by the strategy goroutine.
	// memo and states are nil when Spec.Scratch disables the layer;
	// memo hits still count toward evals and the budget, so the
	// strategies' decisions — and with them winners, fronts and eval
	// totals — are byte-identical with the layer on or off.
	memo      map[string]Eval       // candidate key × windows -> finished eval
	states    map[string]*evalState // candidate key -> latest rung checkpoint
	cacheHits int                   // evaluations served from memo
	refsSim   int64                 // trace references actually replayed
	refsScr   int64                 // references a from-scratch run would replay
	// lastResumed/lastReplayed split the latest generation's window
	// work: windows skipped by restoring checkpoints vs replayed.
	lastResumed  int
	lastReplayed int
}

// evalState is one candidate's resumable rung state: the snapshot taken
// after its latest prefix evaluation and the window count it covers.
type evalState struct {
	ck      *core.Checkpoint
	windows int
}

// memoKey is the eval memo key: canonical candidate key × the raw
// windows argument (0 for full trace — full and whole-trace-prefix
// evaluations differ in instruction accounting, and the raw argument
// keeps them distinct).
func memoKey(c candidate, windows int) string {
	return c.key() + "@" + strconv.Itoa(windows)
}

// releaseStates drops every rung checkpoint except those of the kept
// candidates, releasing eliminated snapshots to the collector. The
// kept map is rebuilt in pool order, so no map is ever ranged.
func (ev *evaluator) releaseStates(keep []candidate) {
	if ev.states == nil {
		return
	}
	kept := make(map[string]*evalState, len(keep))
	for _, c := range keep {
		k := c.key()
		if st, ok := ev.states[k]; ok {
			kept[k] = st
		}
	}
	ev.states = kept
}

// config realizes a candidate by applying each dimension's mutator to
// the paper-default configuration. Parameters outside the space stay
// at their paper defaults.
func (ev *evaluator) config(c candidate) (core.Config, error) {
	cfg := core.DefaultConfig()
	for i, d := range ev.spec.Space {
		if err := sweeprun.ParamSet[d.Param].Apply(&cfg, c[i]); err != nil {
			return core.Config{}, fmt.Errorf("search: %s=%d: %w", d.Param, c[i], err)
		}
	}
	return cfg, nil
}

// nodeCost prices the candidate's hardware delta: stream-buffer
// entries (PerStream prices a paper-depth buffer, so deeper buffers
// scale proportionally), filter logic if any filter is present, and
// victim-cache entries as SRAM.
func (ev *evaluator) nodeCost(cfg core.Config) (float64, error) {
	def := core.DefaultConfig()
	depth := cfg.Streams.Depth
	if depth <= 0 {
		depth = def.Streams.Depth
	}
	refDepth := def.Streams.Depth
	if refDepth <= 0 {
		refDepth = 1
	}
	units := (cfg.Streams.Streams*depth + refDepth - 1) / refDepth
	var sramKB uint
	if cfg.VictimEntries > 0 {
		bytes := cfg.VictimEntries * int(cfg.Geometry.BlockBytes())
		sramKB = uint((bytes + 1023) / 1024)
		if sramKB == 0 {
			sramKB = 1
		}
	}
	n := cost.Node{
		L2KB:          sramKB,
		Streams:       units,
		Filtered:      cfg.UnitFilterEntries > 0 || cfg.StrideFilterEntries > 0,
		BandwidthMBps: baselineBandwidthMBps,
	}
	return ev.prices.Cost(n)
}

// evaluate scores one generation. windows > 0 replays only that many
// sample windows (a cheap halving rung); windows == 0 replays the full
// trace — the same exact replay a sweep point runs, so full-trace
// scores are identical to a solo sweep point's and independent of
// generation grouping. The generation is split into up to
// Spec.Parallel contiguous groups replayed concurrently; per-candidate
// results never depend on the grouping, so any width produces
// identical evaluations.
//
// With the incremental layer enabled, a candidate whose exact (key,
// windows) evaluation is memoized is served without replaying anything,
// and a candidate holding a rung checkpoint at window F <= windows
// restores it and replays only [F, windows) — full-trace evaluations
// included, because every replay is exact.
func (ev *evaluator) evaluate(ctx context.Context, pool []candidate, windows int) ([]Eval, error) {
	if len(pool) == 0 {
		return nil, nil
	}
	K := ev.tr.WindowCount()
	to := windows
	if to <= 0 || to > K {
		to = K
	}
	scratchRefs := int64(ev.tr.PrefixLen(to))
	ev.lastResumed, ev.lastReplayed = 0, 0

	evals := make([]Eval, len(pool))
	type job struct {
		idx  int // index into pool/evals
		cfg  core.Config
		from int // resume window (0 = from scratch)
		sys  *core.System
	}
	jobs := make([]job, 0, len(pool))
	for i, c := range pool {
		if e, ok := ev.memo[memoKey(c, windows)]; ok {
			evals[i] = e
			ev.cacheHits++
			evalCacheHits.Add(1)
			ev.refsScr += scratchRefs
			continue
		}
		cfg, err := ev.config(c)
		if err != nil {
			return nil, err
		}
		costUSD, err := ev.nodeCost(cfg)
		if err != nil {
			return nil, err
		}
		evals[i] = Eval{
			Config:  c.label(ev.spec.Space),
			Values:  append([]int(nil), c...),
			Cost:    costUSD,
			Windows: windows,
		}
		jobs = append(jobs, job{idx: i, cfg: cfg})
	}

	// Realize the systems: a checkpoint restore where the incremental
	// layer holds one, a fresh system otherwise.
	for j := range jobs {
		if st := ev.states[pool[jobs[j].idx].key()]; st != nil && st.windows > 0 && st.windows <= to {
			jobs[j].from, jobs[j].sys = st.windows, st.ck.Restore()
			continue
		}
		sys, err := core.New(jobs[j].cfg)
		if err != nil {
			return nil, err
		}
		jobs[j].sys = sys
	}

	if len(jobs) > 0 {
		groups := ev.spec.Parallel
		if groups < 1 {
			groups = 1
		}
		if groups > len(jobs) {
			groups = len(jobs)
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		errs := make([]error, groups)
		var wg sync.WaitGroup
		for g := 0; g < groups; g++ {
			lo := g * len(jobs) / groups
			hi := (g + 1) * len(jobs) / groups
			wg.Add(1)
			go func(g int, js []job) {
				defer wg.Done()
				// Within a group, candidates resuming from the same window
				// replay together (one decode pass, one front simulation
				// per front class); in practice a rung's survivors all
				// resume from the previous rung's boundary, so this is one
				// run per group.
				for len(js) > 0 {
					run := 1
					for run < len(js) && js[run].from == js[0].from {
						run++
					}
					group := make([]*core.System, run)
					for k := 0; k < run; k++ {
						group[k] = js[k].sys
					}
					if err := core.ReplayStoreMultiPrefixFrom(runCtx, group, ev.tr, js[0].from, to); err != nil {
						errs[g] = err
						cancel()
						return
					}
					js = js[run:]
				}
			}(g, jobs[lo:hi])
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	for _, jb := range jobs {
		if ev.states != nil && windows > 0 {
			// Snapshot before Results: Finish would close the bandwidth
			// ledger, and a closed ledger cannot be extended exactly.
			ev.states[pool[jb.idx].key()] = &evalState{ck: jb.sys.Checkpoint(), windows: to}
		}
		if windows <= 0 {
			// Instructions are a whole-trace quantity; prefix rungs rank
			// on access-stream metrics only, which don't need them.
			jb.sys.AddInstructions(ev.tr.Instructions())
		}
		r := jb.sys.Results()
		e := &evals[jb.idx]
		e.Hit = r.StreamHitRate()
		e.EB = r.ExtraBandwidth()
		e.MissRate = r.DataMissRate()
		ev.refsSim += int64(ev.tr.PrefixLen(to) - ev.tr.PrefixLen(jb.from))
		ev.refsScr += scratchRefs
		ev.lastResumed += jb.from
		ev.lastReplayed += to - jb.from
		if ev.memo != nil {
			ev.memo[memoKey(pool[jb.idx], windows)] = *e
		}
	}
	ev.evals += len(pool)
	evalsTotal.Add(uint64(len(pool)))
	return evals, nil
}

// label renders "streams=8 depth=2" in dimension order.
func (c candidate) label(dims []Dim) string {
	var b strings.Builder
	for i, d := range dims {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", d.Param, c[i])
	}
	return b.String()
}
