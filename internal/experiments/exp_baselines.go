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

// onChipL1 is one pair of the paper's L1s under a prefetcher that
// fills the cache directly. p supplies the miss/first-use hooks, and
// an RPT additionally observes every reference (it is on-chip beside
// the load/store unit). The no-prefetch baseline it is scored against
// needs no walker of its own: those L1s are the ones the row's stream
// configuration replays.
type onChipL1 struct {
	l1i, l1d       taggedL1
	geom           mem.Geometry
	p              prefetch.Prefetcher
	rpt            *prefetch.RPT // p, when it is an RPT
	blocks         []mem.Addr    // the blocks p asks for, reused across calls
	misses, wasted uint64
}

// taggedL1 is one L1 of an onChipL1 with the tagged policies' tag bit:
// untouched holds one flag per way, indexed by the flat way
// cache.Probe returns, set while the way holds a prefetched block no
// demand reference has touched yet. A flag lives with its line, so a
// block prefetched into one L1 is not used by a hit in the other.
type taggedL1 struct {
	c         *cache.Cache
	untouched []bool
}

func newTaggedL1(cfg cache.Config) (taggedL1, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return taggedL1{}, err
	}
	return taggedL1{c: c, untouched: make([]bool, cfg.SizeBytes/cfg.BlockBytes)}, nil
}

func newOnChipL1(p prefetch.Prefetcher) (*onChipL1, error) {
	cfg := noStreams()
	l1i, err := newTaggedL1(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := newTaggedL1(cfg.L1D)
	if err != nil {
		return nil, err
	}
	rpt, _ := p.(*prefetch.RPT)
	return &onChipL1{l1i: l1i, l1d: l1d, geom: cfg.Geometry, p: p, rpt: rpt}, nil
}

// filled accounts a fill of the block holding addr into l1, found by
// probing it again: a fill that displaces an untouched prefetched
// block wastes that prefetch, and the way is untouched afterwards iff
// the fill is a prefetch.
func (o *onChipL1) filled(l1 *taggedL1, addr mem.Addr, prefetched bool) {
	way, _ := l1.c.Probe(uint64(addr))
	if l1.untouched[way] {
		o.wasted++
	}
	l1.untouched[way] = prefetched
}

// install prefetches blocks into l1.
func (o *onChipL1) install(l1 *taggedL1, blocks []mem.Addr) {
	for _, b := range blocks {
		addr := o.geom.BlockToByte(b)
		if l1.c.Prefetch(uint64(addr)).Filled {
			o.filled(l1, addr, true)
		}
	}
}

// access presents one reference to the L1s and the prefetcher.
func (o *onChipL1) access(a mem.Access) {
	l1 := &o.l1d
	if a.Kind == mem.IFetch {
		l1 = &o.l1i
	}
	write := a.Kind == mem.Write
	switch way, st := l1.c.Probe(uint64(a.Addr)); st {
	case cache.ProbeHit:
		l1.c.HitAt(way, write)
		if l1.untouched[way] {
			l1.untouched[way] = false
			o.blocks = o.p.FirstUse(a, o.geom.BlockAddr(a.Addr), o.blocks[:0])
			o.install(l1, o.blocks)
		}
	case cache.ProbeMiss:
		if l1.c.MissAt(uint64(a.Addr), write).Filled {
			o.misses++
			o.filled(l1, a.Addr, false)
			o.blocks = o.p.Miss(a, o.geom.BlockAddr(a.Addr), o.blocks[:0])
			o.install(l1, o.blocks)
		}
	default:
		l1.c.NoteUnsampled()
	}
	if o.rpt != nil {
		if pb, ok := o.rpt.Observe(a); ok {
			o.blocks = append(o.blocks[:0], pb)
			o.install(l1, o.blocks)
		}
	}
}

// result scores the walk against the baseline's misses; blocks still
// untouched at the end count as wasted.
func (o *onChipL1) result(baseMisses uint64) baselineResult {
	if baseMisses == 0 {
		return baselineResult{}
	}
	wasted := o.wasted
	for _, l1 := range []*taggedL1{&o.l1i, &o.l1d} {
		for _, u := range l1.untouched {
			if u {
				wasted++
			}
		}
	}
	return baselineResult{
		Coverage: 100 * float64(int64(baseMisses)-int64(o.misses)) / float64(baseMisses),
		Extra:    100 * float64(wasted) / float64(baseMisses),
	}
}

// runOnChipPrefetchers walks a trace once through two independent
// pairs of L1s, under tagged OBL and under the RPT, and scores each
// against baseMisses, the no-prefetch L1 misses of the same trace.
// Each pair gives the result a walk of its own would, from one decode.
func runOnChipPrefetchers(ctx context.Context, tr *trace.Store, baseMisses uint64) (obl, rpt baselineResult, err error) {
	oblP, err := prefetch.NewOBL(1)
	if err != nil {
		return obl, rpt, err
	}
	rptP, err := prefetch.NewRPT(mem.DefaultGeometry(), 512, 4)
	if err != nil {
		return obl, rpt, err
	}
	l1s := make([]*onChipL1, 2)
	for i, p := range []prefetch.Prefetcher{oblP, rptP} {
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
	return l1s[0].result(baseMisses), l1s[1].result(baseMisses), nil
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
		// The stream configuration runs the paper's L1s, seeds
		// included, so its fills are the no-prefetch baseline's misses.
		base := sres.L1I.Fills + sres.L1D.Fills
		oblRes, rptRes, err := runOnChipPrefetchers(ctx, tr, base)
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
