// Figure experiments: the paper's Figures 3, 5, 8 and 9 as data
// tables (one column per x-axis point). Benchmarks fan out across the
// machine's cores; within a benchmark, every x-axis configuration
// replays from a single decode of the recorded trace (runConfigs), so
// a nine-point sweep decodes its trace once instead of nine times.
package experiments

import (
	"context"
	"fmt"

	"streamsim/internal/core"
	"streamsim/internal/tab"
	"streamsim/internal/workload"
)

// figure3StreamCounts is Figure 3's x axis.
var figure3StreamCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 10}

// Figure3 regenerates hit rate versus the number of streams for every
// benchmark (unfiltered, depth 2).
//
//simlint:deterministic
func Figure3(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	cols := []string{"benchmark"}
	for _, n := range figure3StreamCounts {
		cols = append(cols, fmt.Sprintf("%d", n))
	}
	t := &tab.Table{
		Title:   "Figure 3: stream hit rate (%) vs number of streams (depth 2, no filter)",
		Columns: cols,
		Notes: []string{
			"expected shape: most benchmarks plateau by 7-8 streams in the 50-80% band;",
			"fftpde/appsp stay low (non-unit strides), adm/dyfesm stay low (indirections)",
		},
	}
	names := workload.Names()
	err := addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		cfgs := make([]core.Config, len(figure3StreamCounts))
		for j, streams := range figure3StreamCounts {
			cfgs[j] = plainStreams(streams)
		}
		res, err := runConfigs(ctx, name, table1Size(name), opt, cfgs)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, r := range res {
			row = append(row, tab.F(r.StreamHitRate()))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Figure5 regenerates the filter study: hit rate and extra bandwidth
// with and without the 16-entry unit-stride filter at ten streams.
//
//simlint:deterministic
func Figure5(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	t := &tab.Table{
		Title: "Figure 5: effect of the unit-stride filter (10 streams, 16 entries)",
		Columns: []string{
			"benchmark", "hit w/o", "hit w/", "EB w/o", "EB w/",
			"paper hit w/o->w/", "paper EB w/o->w/",
		},
	}
	names := workload.Names()
	err := addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		res, err := runConfigs(ctx, name, table1Size(name), opt,
			[]core.Config{plainStreams(10), filteredStreams()})
		if err != nil {
			return nil, err
		}
		plain, filt := res[0], res[1]
		refHit, refEB := "-", "-"
		if ref, ok := paperFig5[name]; ok {
			if ref.HitPlain > 0 {
				refHit = fmt.Sprintf("%.0f->%.0f", ref.HitPlain, ref.HitFiltered)
			}
			if ref.EBPlain > 0 {
				refEB = fmt.Sprintf("%.0f->%.0f", ref.EBPlain, ref.EBFiltered)
			}
		}
		return []string{name,
			tab.F(plain.StreamHitRate()), tab.F(filt.StreamHitRate()),
			tab.F(plain.ExtraBandwidth()), tab.F(filt.ExtraBandwidth()),
			refHit, refEB}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Figure8 regenerates the non-unit-stride study: unit-stride-only
// streams versus the czone constant-stride scheme (both behind the
// unit-stride filter, 10 streams, 16-entry filters, czone 16 bits).
//
//simlint:deterministic
func Figure8(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	t := &tab.Table{
		Title: "Figure 8: unit-stride-only vs constant-stride detection (10 streams)",
		Columns: []string{
			"benchmark", "unit-only hit %", "constant-stride hit %",
			"paper unit", "paper strided",
		},
		Notes: []string{
			"expected: fftpde, appsp and trfd gain dramatically; others change little",
		},
	}
	names := workload.Names()
	err := addRows(ctx, t, inputWeights(names, opt.Scale), func(i int) ([]string, error) {
		name := names[i]
		res, err := runConfigs(ctx, name, table1Size(name), opt,
			[]core.Config{filteredStreams(), stridedStreams(16)})
		if err != nil {
			return nil, err
		}
		pu, ps := "-", "-"
		if ref, ok := paperFig8[name]; ok {
			pu, ps = tab.F(ref.Unit), tab.F(ref.Strided)
		}
		return []string{name, tab.F(res[0].StreamHitRate()), tab.F(res[1].StreamHitRate()), pu, ps}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// figure9CzoneBits is Figure 9's x axis.
var figure9CzoneBits = []uint{10, 12, 14, 16, 18, 20, 22, 24, 26}

// figure9Benchmarks are the programs with significant non-unit-stride
// references.
var figure9Benchmarks = []string{"appsp", "fftpde", "trfd"}

// Figure9 regenerates hit-rate sensitivity to the czone size for the
// three stride-heavy benchmarks.
//
//simlint:deterministic
func Figure9(ctx context.Context, opt Options) (*tab.Table, error) {
	opt = opt.withDefaults()
	cols := []string{"benchmark"}
	for _, b := range figure9CzoneBits {
		cols = append(cols, fmt.Sprintf("%d", b))
	}
	t := &tab.Table{
		Title:   "Figure 9: stream hit rate (%) vs czone size in bits (10 streams)",
		Columns: cols,
		Notes: []string{
			"expected: fftpde effective only in a middle czone window; appsp and trfd",
			"prefer large czones (paper: optimal czone is a little over twice the stride)",
		},
	}
	err := addRows(ctx, t, inputWeights(figure9Benchmarks, opt.Scale), func(i int) ([]string, error) {
		name := figure9Benchmarks[i]
		cfgs := make([]core.Config, len(figure9CzoneBits))
		for j, bits := range figure9CzoneBits {
			cfgs[j] = stridedStreams(bits)
		}
		res, err := runConfigs(ctx, name, table1Size(name), opt, cfgs)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, r := range res {
			row = append(row, tab.F(r.StreamHitRate()))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
