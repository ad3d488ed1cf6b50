package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"streamsim/internal/core"
	"streamsim/internal/search"
	"streamsim/internal/sweeprun"
	"streamsim/internal/trace"
	"streamsim/internal/workload"
)

// exploreInput is one optimizer input. The three differ in stride
// pattern and footprint: appbt's large input has long unit-stride
// streams and is the largest trace, fftpde's non-unit strides exercise
// the czone detector, and dyfesm's indirections make streams mostly
// miss.
type exploreInput struct {
	name, size string
	scale      float64
}

var exploreInputs = []exploreInput{
	{"appbt", "large", 0.5},
	{"fftpde", "small", 1.0},
	{"dyfesm", "small", 1.0},
}

// exploreBudget caps each optimization's evaluations.
const exploreBudget = 128

// exploreUnitS is the nominal length of one timed unit.
const exploreUnitS = 7

// exploreSpace mixes L1 associativity and victim caches with the
// stream-side parameters. Candidates with different L1 fronts cannot
// share one L1 simulation, so every candidate probes its own L1.
var exploreSpace = []search.Dim{
	{Param: "assoc", Values: []int{1, 2, 4}},
	{Param: "victim", Values: []int{0, 4}},
	{Param: "streams", Values: []int{2, 4, 6, 8, 10}},
	{Param: "filter", Values: []int{0, 16}},
	{Param: "czone", Values: []int{12, 16, 20}},
}

// exploreSpecs are the optimizations of one timed unit: run i uses
// Spec.Seed = seed + i, at the sweep CLI's default width of one
// evaluation group.
func exploreSpecs(seed int64) []search.Spec {
	specs := make([]search.Spec, len(exploreInputs))
	for i, in := range exploreInputs {
		specs[i] = search.Spec{
			Workload: in.name, Size: in.size, Scale: in.scale,
			Metric: "hit", Space: exploreSpace, Strategy: "halving",
			Budget: exploreBudget, Seed: seed + int64(i), Parallel: 1,
		}
	}
	return specs
}

// runExplore runs the three optimizations through search.RunProgress.
// Set-up records the three inputs through sweeprun.Record, the call
// each optimization makes first, so recording is inside the timed
// unit as well; the set-up recordings serve the re-score check. A
// repeated unit runs the same specs and must return the same results.
func runExplore(ctx context.Context, c runCfg) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	stores := make([]*trace.Store, len(exploreInputs))
	for len(rep.setupS) < minSetups {
		sp := c.rec.start("setup", "setup", 0)
		d, err := timeIt(func() error {
			for i, in := range exploreInputs {
				rs := c.rec.start("sweeprun.record."+in.name, "setup", sp)
				_, st, err := sweeprun.Record(ctx, in.name, in.size, in.scale)
				c.rec.end(rs)
				if err != nil {
					return err
				}
				stores[i] = st
			}
			return nil
		})
		c.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("recording: %w", err)
		}
		rep.setupS = append(rep.setupS, d)
	}

	specs := exploreSpecs(c.seed)
	firstJSON := make([][]byte, len(specs))
	perInput := make([][]float64, len(specs))
	var firstGen []float64
	var refs, scratch, evals, memo, resumed, replayed float64
	for unit := 0; unit < c.units(exploreUnitS); unit++ {
		runSp := c.rec.start("run", "run", 0)
		c.prof.start()
		watch := startWatch()
		results := make([]*search.Result, len(specs))
		errs := make([]error, len(specs))
		for i, s := range specs {
			op := fmt.Sprintf("%s#%d", s.Workload, unit)
			sp := c.rec.start("search."+s.Workload, op, runSp)
			gen := c.rec.start("search.first_gen", op, sp)
			start := time.Now()
			var res *search.Result
			d, err := timeIt(func() error {
				var err error
				res, err = search.RunProgress(ctx, s, func(p search.Progress) {
					if p.Generation == 0 {
						c.rec.end(gen)
						gen = 0
						firstGen = append(firstGen, time.Since(start).Seconds())
					}
					resumed += float64(p.WindowsResumed)
					replayed += float64(p.WindowsReplayed)
				})
				return err
			})
			c.rec.end(gen)
			c.rec.end(sp)
			results[i], errs[i] = res, err
			perInput[i] = append(perInput[i], d)
			rep.opMS = append(rep.opMS, 1000*d)
		}
		watch.record(rep)
		c.rec.end(runSp)
		c.prof.stop()
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		for i, res := range results {
			ok := errs[i] == nil && res != nil
			if ok {
				evals += float64(res.Evals)
				memo += float64(res.CacheHits)
				refs += float64(res.RefsSimulated)
				scratch += float64(res.RefsScratch)
				b, err := json.Marshal(res)
				switch {
				case err != nil:
					ok = false
				case unit == 0:
					// Re-score the winner alone on the set-up
					// recording, untimed.
					firstJSON[i] = b
					if err := checkWinner(ctx, specs[i], res, stores[i]); err != nil {
						fmt.Fprintf(os.Stderr, "explore check: %s: %v\n", specs[i].Workload, err)
						ok = false
					}
				default:
					// Same spec, same seed: a fixed seed reproduces
					// the result bit for bit.
					ok = string(b) == string(firstJSON[i])
				}
			}
			rep.count(ok)
		}
	}
	rep.peakRSSMB = peakRSSMB()

	units := float64(len(rep.runS))
	rep.layer["search.evals"] = evals / units
	rep.layer["search.memo_hits"] = memo / units
	rep.layer["search.refs_simulated"] = refs / units
	if refs > 0 {
		rep.layer["search.refs_saved_ratio"] = scratch / refs
	}
	rep.layer["search.windows_resumed"] = resumed / units
	rep.layer["search.windows_replayed"] = replayed / units
	total := 0.0
	for i, s := range specs {
		m := median(perInput[i])
		total += m
		rep.layerRows = append(rep.layerRows, row{"search." + s.Workload + "_s", m, "s", len(perInput[i])})
	}
	rep.layerRows = append(rep.layerRows,
		row{"search.first_gen_s", median(firstGen), "s", len(firstGen)},
		row{"search.sum_of_runs_s", total, "s", 0},
		row{"search.run_s", median(rep.runS), "s", len(rep.runS)},
	)
	for _, in := range exploreInputs {
		sz := workload.SizeSmall
		if in.size == "large" {
			sz = workload.SizeLarge
		}
		rep.probe = append(rep.probe, probeInput{name: in.name, size: sz, scale: in.scale})
	}
	return rep, nil
}

// checkWinner is the explore workload's output check: the winner's
// configuration, rebuilt from Eval.Values through sweeprun.ParamSet
// and replayed alone on the recording, must reproduce the reported
// stream hit rate exactly.
func checkWinner(ctx context.Context, s search.Spec, res *search.Result, st *trace.Store) error {
	w := res.Winner
	if w == nil {
		return fmt.Errorf("no winner")
	}
	if len(w.Values) != len(s.Space) {
		return fmt.Errorf("winner has %d values for %d dimensions", len(w.Values), len(s.Space))
	}
	cfg := core.DefaultConfig()
	for i, d := range s.Space {
		if err := sweeprun.ParamSet[d.Param].Apply(&cfg, w.Values[i]); err != nil {
			return err
		}
	}
	sys, err := core.New(cfg)
	if err != nil {
		return err
	}
	if err := core.ReplayStoreWindowed(ctx, sys, st, core.ShardOptions{}); err != nil {
		return err
	}
	if got := sys.Results().StreamHitRate(); got != w.Hit {
		return fmt.Errorf("winner %s: re-scored hit rate %v, reported %v", w.Config, got, w.Hit)
	}
	return nil
}
