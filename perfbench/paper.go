package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"streamsim/internal/experiments"
	"streamsim/internal/tab"
	"streamsim/internal/workload"
)

// paperScale is the trace scale of make quick's paperexp pass.
const paperScale = 0.1

// paperUnitS is the nominal length of one timed unit.
const paperUnitS = 16

// minSetups is how many set-ups a run times at least; setup_s is
// their median.
const minSetups = 3

// runPaper runs every artefact of the paper in paper order through
// experiments.Experiment.Run with default sharding. The inputs are the
// paper's fixed kernels, so the seed does not apply. Set-up is Table 1
// on an empty trace cache: it records the 15 inputs every later
// artefact replays. The timed unit is the other 12 artefacts; Table 4
// records five more inputs inside it. Each unit starts from a fresh
// set-up, so every unit does the same work.
func runPaper(ctx context.Context, c runCfg) (*report, error) {
	all := experiments.All()
	setupExp, timed := all[0], all[1:]
	opt := experiments.Options{Scale: paperScale}
	rep := &report{layer: map[string]float64{}}
	durs := map[string][]float64{}
	var tables map[string]*tab.Table

	setup := func() {
		experiments.ResetTraceCache()
		op := fmt.Sprintf("%s#%d", setupExp.ID, len(rep.setupS))
		sp := c.rec.start("setup", op, 0)
		t, d, err := runArtefact(ctx, c.rec, setupExp, opt, sp, op)
		c.rec.end(sp)
		rep.setupS = append(rep.setupS, d)
		durs[setupExp.ID] = append(durs[setupExp.ID], d)
		rep.count(err == nil && checkPaperTable(setupExp.ID, t) == nil)
	}
	for len(rep.setupS) < minSetups-1 {
		setup()
	}
	var refs, hits float64
	for u := 0; u < c.units(paperUnitS); u++ {
		setup()
		refs0, hits0 := experiments.ReplayedRefs(), experiments.TraceCacheHits()
		tables = map[string]*tab.Table{}
		errs := map[string]error{}
		runSp := c.rec.start("run", "run", 0)
		c.prof.start()
		watch := startWatch()
		for _, e := range timed {
			t, d, err := runArtefact(ctx, c.rec, e, opt, runSp, fmt.Sprintf("%s#%d", e.ID, u))
			tables[e.ID], errs[e.ID] = t, err
			durs[e.ID] = append(durs[e.ID], d)
			rep.opMS = append(rep.opMS, 1000*d)
		}
		watch.record(rep)
		c.rec.end(runSp)
		c.prof.stop()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		refs += float64(experiments.ReplayedRefs() - refs0)
		hits += float64(experiments.TraceCacheHits() - hits0)
		for _, e := range timed {
			rep.count(errs[e.ID] == nil && checkPaperTable(e.ID, tables[e.ID]) == nil)
		}
	}
	rep.peakRSSMB = peakRSSMB()

	units := float64(len(rep.runS))
	hitErr, ebErr := paperErrors(tables)
	rep.rows = append(rep.rows,
		row{"paper_hit_err_pts", mean(hitErr), "pts", len(hitErr)},
		row{"paper_eb_err_pts", mean(ebErr), "pts", len(ebErr)},
	)
	rep.layer["experiments.replayed_refs"] = refs / units
	rep.layer["experiments.trace_cache_hits"] = hits / units
	artefacts := 0.0
	for _, e := range all {
		m := median(durs[e.ID])
		artefacts += m
		rep.layerRows = append(rep.layerRows, row{"experiments." + e.ID + "_s", m, "s", len(durs[e.ID])})
	}
	rep.layerRows = append(rep.layerRows,
		row{"experiments.refs_per_s", refs / units / median(rep.runS), "1/s", 0},
		row{"experiments.sum_of_artefacts_s", artefacts, "s", 0},
		row{"experiments.setup_plus_run_s", median(rep.setupS) + median(rep.runS), "s", 0},
	)
	rep.probe = paperInputs()
	return rep, nil
}

// runArtefact runs one experiment under a span and returns its table
// and host time.
func runArtefact(ctx context.Context, rec *recorder, e experiments.Experiment, opt experiments.Options, parent int, op string) (*tab.Table, float64, error) {
	sp := rec.start("experiments."+e.ID, op, parent)
	defer rec.end(sp)
	var t *tab.Table
	d, err := timeIt(func() error {
		var err error
		t, err = e.Run(ctx, opt)
		return err
	})
	return t, d, err
}

// paperInputs are the paper workload's traces: Table 1's fifteen,
// recorded in set-up, and the five Table 4 adds inside the timed unit
// (the other input size of each growable benchmark).
func paperInputs() []probeInput {
	large := map[string]bool{"appsp": true, "appbt": true, "applu": true}
	var in []probeInput
	for _, n := range workload.Names() {
		sz := workload.SizeSmall
		if large[n] {
			sz = workload.SizeLarge
		}
		in = append(in, probeInput{name: n, size: sz, scale: paperScale})
	}
	for _, n := range workload.GrowableNames() {
		sz := workload.SizeLarge
		if large[n] {
			sz = workload.SizeSmall
		}
		in = append(in, probeInput{name: n, size: sz, scale: paperScale})
	}
	return in
}

// expectedRows is the row count each artefact's table must have.
func expectedRows(id string) int {
	switch id {
	case "fig9":
		return 3 // the three stride-heavy benchmarks
	case "table4":
		return 2 * len(workload.GrowableNames()) // both input sizes
	default:
		return len(workload.Names())
	}
}

// checkPaperTable is the paper workload's output check: the artefact
// returned its table, with the expected row count, and every cell of a
// published-value column parses.
func checkPaperTable(id string, t *tab.Table) error {
	if t == nil {
		return fmt.Errorf("%s: no table", id)
	}
	if len(t.Rows) != expectedRows(id) {
		return fmt.Errorf("%s: %d rows, want %d", id, len(t.Rows), expectedRows(id))
	}
	for ci, col := range t.Columns {
		if !strings.HasPrefix(col, "paper") {
			continue
		}
		for ri, r := range t.Rows {
			if ci >= len(r) {
				return fmt.Errorf("%s row %d: no %q cell", id, ri, col)
			}
			if _, _, err := parsePublished(r[ci]); err != nil {
				return fmt.Errorf("%s row %d %q: %w", id, ri, col, err)
			}
		}
	}
	return nil
}

// parsePublished parses a published-value cell: a number, a
// "before->after" pair, a secondary-cache size ("512 KB", "> 4 MB"),
// or "-" where the paper gives no value (n = 0).
func parsePublished(cell string) (vals [2]float64, n int, err error) {
	cell = strings.TrimSpace(cell)
	switch {
	case cell == "-":
		return vals, 0, nil
	case strings.Contains(cell, "->"):
		a, b, _ := strings.Cut(cell, "->")
		if vals[0], err = strconv.ParseFloat(a, 64); err == nil {
			vals[1], err = strconv.ParseFloat(b, 64)
		}
		return vals, 2, err
	case strings.HasSuffix(cell, " KB") || strings.HasSuffix(cell, " MB"):
		num := strings.TrimPrefix(strings.TrimSpace(cell[:len(cell)-3]), "> ")
		vals[0], err = strconv.ParseFloat(num, 64)
		return vals, 1, err
	default:
		vals[0], err = strconv.ParseFloat(cell, 64)
		return vals, 1, err
	}
}

// published pairs a regenerated column with the published column that
// a paper artefact prints beside it; part picks the half of a
// "before->after" cell.
type published struct {
	id, got, want string
	part          int
	eb            bool
}

// comparisons lists every stream hit rate (Figure 5, Figure 8,
// Table 4) and extra bandwidth (Table 2, Figure 5) printed beside a
// published value.
var comparisons = []published{
	{id: "fig5", got: "hit w/o", want: "paper hit w/o->w/", part: 0},
	{id: "fig5", got: "hit w/", want: "paper hit w/o->w/", part: 1},
	{id: "fig8", got: "unit-only hit %", want: "paper unit"},
	{id: "fig8", got: "constant-stride hit %", want: "paper strided"},
	{id: "table4", got: "stream hit %", want: "paper hit %"},
	{id: "table2", got: "EB %", want: "paper EB %", eb: true},
	{id: "fig5", got: "EB w/o", want: "paper EB w/o->w/", part: 0, eb: true},
	{id: "fig5", got: "EB w/", want: "paper EB w/o->w/", part: 1, eb: true},
}

// paperErrors returns |regenerated - published| in percentage points
// for every compared hit rate and extra bandwidth.
func paperErrors(tables map[string]*tab.Table) (hit, eb []float64) {
	for _, c := range comparisons {
		t := tables[c.id]
		if t == nil {
			continue
		}
		gi, wi := colIndex(t, c.got), colIndex(t, c.want)
		if gi < 0 || wi < 0 {
			continue
		}
		for _, r := range t.Rows {
			if gi >= len(r) || wi >= len(r) {
				continue
			}
			want, n, err := parsePublished(r[wi])
			got, gerr := strconv.ParseFloat(strings.TrimSpace(r[gi]), 64)
			if err != nil || gerr != nil || n == 0 || c.part >= n {
				continue
			}
			d := math.Abs(got - want[c.part])
			if c.eb {
				eb = append(eb, d)
			} else {
				hit = append(hit, d)
			}
		}
	}
	return hit, eb
}

func colIndex(t *tab.Table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
