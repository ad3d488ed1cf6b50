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
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// baselineResult summarizes one prefetcher run.
type baselineResult struct {
	// Coverage is the fraction of baseline misses eliminated (%).
	Coverage float64
	// Extra is wasted prefetch traffic relative to baseline misses (%).
	Extra float64
}

// onChipL1 is one pair of L1s under a prefetcher that fills the cache
// directly; a nil prefetcher makes it the no-prefetch baseline. p
// supplies the miss/first-use hooks, and an RPT additionally observes
// every reference (it is on-chip beside the load/store unit).
type onChipL1 struct {
	l1i, l1d *cache.Cache
	geom     mem.Geometry
	p        prefetch.Prefetcher
	rpt      *prefetch.RPT // p, when it is an RPT
	// pending tracks prefetched-but-untouched blocks for the tagged
	// policies and for wasted-traffic accounting.
	pending        map[mem.Addr]bool
	misses, wasted uint64
}

func newOnChipL1(p prefetch.Prefetcher) (*onChipL1, error) {
	cfg := noStreams()
	l1i, err := cache.New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := cache.New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	rpt, _ := p.(*prefetch.RPT)
	return &onChipL1{l1i: l1i, l1d: l1d, geom: cfg.Geometry, p: p, rpt: rpt,
		pending: map[mem.Addr]bool{}}, nil
}

// evicted counts a prefetched block that died untouched.
func (o *onChipL1) evicted(victim mem.Addr) {
	if o.pending[victim] {
		delete(o.pending, victim)
		o.wasted++
	}
}

// install prefetches blocks into c.
func (o *onChipL1) install(c *cache.Cache, blocks []mem.Addr) {
	for _, b := range blocks {
		res := c.Prefetch(uint64(o.geom.BlockToByte(b)))
		if !res.Filled {
			continue
		}
		o.pending[b] = true
		if res.Evicted {
			o.evicted(mem.Addr(res.VictimBlock))
		}
	}
}

// access presents one reference to the L1s and the prefetcher.
func (o *onChipL1) access(a mem.Access) {
	c := o.l1d
	if a.Kind == mem.IFetch {
		c = o.l1i
	}
	var res cache.Result
	if a.Kind == mem.Write {
		res = c.Write(uint64(a.Addr))
	} else {
		res = c.Read(uint64(a.Addr))
	}
	blk := o.geom.BlockAddr(a.Addr)
	if res.Hit && o.pending[blk] {
		delete(o.pending, blk)
		o.install(c, o.p.FirstUse(a, blk))
	}
	if res.Sampled && !res.Hit && res.Filled {
		o.misses++
		if res.Evicted {
			o.evicted(mem.Addr(res.VictimBlock))
		}
		if o.p != nil {
			o.install(c, o.p.Miss(a, blk))
		}
	}
	if o.rpt != nil {
		if pb, ok := o.rpt.Observe(a); ok {
			o.install(c, []mem.Addr{pb})
		}
	}
}

// result scores the walk against the baseline's misses; blocks still
// untouched at the end count as wasted.
func (o *onChipL1) result(baseMisses uint64) baselineResult {
	if baseMisses == 0 {
		return baselineResult{}
	}
	wasted := o.wasted + uint64(len(o.pending))
	return baselineResult{
		Coverage: 100 * float64(int64(baseMisses)-int64(o.misses)) / float64(baseMisses),
		Extra:    100 * float64(wasted) / float64(baseMisses),
	}
}

// runOnChipPrefetchers walks a trace once through three independent
// pairs of L1s: the no-prefetch baseline, which counts the misses
// coverage is measured against, tagged OBL and the RPT. Each pair
// gives the result a walk of its own would, from one decode.
func runOnChipPrefetchers(ctx context.Context, tr *trace.Store) (obl, rpt baselineResult, err error) {
	oblP, err := prefetch.NewOBL(1)
	if err != nil {
		return obl, rpt, err
	}
	rptP, err := prefetch.NewRPT(mem.DefaultGeometry(), 512, 4)
	if err != nil {
		return obl, rpt, err
	}
	l1s := make([]*onChipL1, 3)
	for i, p := range []prefetch.Prefetcher{nil, oblP, rptP} {
		if l1s[i], err = newOnChipL1(p); err != nil {
			return obl, rpt, err
		}
	}
	err = each(ctx, tr, func(a *mem.Access) {
		for _, o := range l1s {
			o.access(*a)
		}
	})
	if err != nil {
		return obl, rpt, err
	}
	base := l1s[0].misses
	return l1s[1].result(base), l1s[2].result(base), nil
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
	err := addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		size := table1Size(name)
		sres, err := runConfig(ctx, name, size, opt, stridedStreams(16))
		if err != nil {
			return nil, err
		}
		tr, err := record(ctx, name, size, opt.Scale)
		if err != nil {
			return nil, err
		}
		oblRes, rptRes, err := runOnChipPrefetchers(ctx, tr)
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
