// Extension experiment: the Section 2 related-work prefetchers as
// baselines. The paper argues stream buffers are the right choice for
// commodity-processor systems because PC-indexed schemes (Baer-Chen's
// RPT) require modifying the processor; this experiment quantifies the
// comparison: miss coverage and extra memory traffic for tagged OBL,
// the RPT, and the paper's filtered stream buffers.
package experiments

import (
	"context"

	"streamsim/internal/cache"
	"streamsim/internal/mem"
	"streamsim/internal/prefetch"
	"streamsim/internal/tab"
	"streamsim/internal/workload"
)

// baselineResult summarizes one prefetcher run.
type baselineResult struct {
	// Coverage is the fraction of baseline misses eliminated (%).
	Coverage float64
	// Extra is wasted prefetch traffic relative to baseline misses (%).
	Extra float64
}

// runOnChipPrefetcher replays a trace through L1s with a prefetcher
// that fills the cache directly. rpt, when non-nil, additionally
// observes every data reference (it is on-chip beside the load/store
// unit); p supplies the miss/first-use hooks.
func runOnChipPrefetcher(ctx context.Context, name string, size workload.Size, scale float64,
	p prefetch.Prefetcher, rpt *prefetch.RPT) (baselineResult, error) {
	tr, err := record(ctx, name, size, scale)
	if err != nil {
		return baselineResult{}, err
	}
	base, err := missStream(ctx, name, size, scale) // baseline misses (no prefetch)
	if err != nil {
		return baselineResult{}, err
	}
	var baseMisses uint64
	for _, ev := range base.events {
		if !ev.write {
			baseMisses++
		}
	}

	cfg := noStreams()
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		return baselineResult{}, err
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		return baselineResult{}, err
	}
	geom := cfg.Geometry

	// pending tracks prefetched-but-untouched blocks for the tagged
	// policies and for wasted-traffic accounting.
	pending := map[mem.Addr]bool{}
	var misses, issued, wasted uint64

	install := func(c *cache.Cache, blocks []mem.Addr) {
		for _, b := range blocks {
			addr := geom.BlockToByte(b)
			res := c.Prefetch(uint64(addr))
			if !res.Filled {
				continue
			}
			issued++
			pending[b] = true
			if res.Evicted {
				victim := mem.Addr(res.VictimBlock)
				if pending[victim] {
					// A prefetched block died untouched.
					delete(pending, victim)
					wasted++
				}
			}
		}
	}

	err = each(ctx, tr, func(pa *mem.Access) {
		a := *pa
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
		blk := geom.BlockAddr(a.Addr)
		if res.Hit && pending[blk] {
			delete(pending, blk)
			install(c, p.FirstUse(a, blk))
		}
		if res.Sampled && !res.Hit && res.Filled {
			misses++
			if res.Evicted {
				if victim := mem.Addr(res.VictimBlock); pending[victim] {
					delete(pending, victim)
					wasted++
				}
			}
			install(c, p.Miss(a, blk))
		}
		if rpt != nil {
			if pb, ok := rpt.Observe(a); ok {
				install(c, []mem.Addr{pb})
			}
		}
	})
	if err != nil {
		return baselineResult{}, err
	}
	wasted += uint64(len(pending)) // still untouched at end

	out := baselineResult{}
	if baseMisses > 0 {
		out.Coverage = 100 * float64(int64(baseMisses)-int64(misses)) / float64(baseMisses)
		out.Extra = 100 * float64(wasted) / float64(baseMisses)
	}
	return out, nil
}

// Baselines compares tagged OBL and the Baer-Chen RPT against the
// paper's filtered stream buffers. Registered as "extbase".
//
//simlint:deterministic
func Baselines(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	t := &tab.Table{
		Title: "Extension: stream buffers vs Section 2 prefetchers (miss coverage %, extra traffic %)",
		Columns: []string{
			"benchmark", "streams cov", "streams extra",
			"OBL cov", "OBL extra", "RPT cov", "RPT extra",
		},
		Notes: []string{
			"coverage = % of no-prefetch misses eliminated (stream hit rate for streams);",
			"extra = wasted prefetched blocks / baseline misses; RPT sees load/store PCs",
			"(requires processor modification, the paper's argument for streams)",
		},
	}
	names := workload.Names()
	err := addRows(ctx, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		size := table1Size(name)
		sres, err := runConfig(ctx, name, size, opt, stridedStreams(16))
		if err != nil {
			return nil, err
		}
		obl, err := prefetch.NewOBL(1)
		if err != nil {
			return nil, err
		}
		oblRes, err := runOnChipPrefetcher(ctx, name, size, opt.Scale, obl, nil)
		if err != nil {
			return nil, err
		}
		rpt, err := prefetch.NewRPT(mem.DefaultGeometry(), 512, 4)
		if err != nil {
			return nil, err
		}
		rptRes, err := runOnChipPrefetcher(ctx, name, size, opt.Scale, rpt, rpt)
		if err != nil {
			return nil, err
		}
		return []string{name,
			tab.F(sres.StreamHitRate()), tab.F(sres.ExtraBandwidth()),
			tab.F(oblRes.Coverage), tab.F(oblRes.Extra),
			tab.F(rptRes.Coverage), tab.F(rptRes.Extra)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
