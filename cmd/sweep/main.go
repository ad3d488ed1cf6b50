// Command sweep varies one memory-system parameter over a benchmark
// and tabulates (or plots) a chosen metric — the exploration loop
// behind every figure in the paper, generalized. The engine lives in
// internal/sweeprun, shared with the simd job service; this command
// adds flag parsing, profiling hooks and ASCII plotting.
//
// Usage:
//
//	sweep -workload mgrid -param streams -values 1,2,4,8,16
//	sweep -workload fftpde -param czone -values 10,12,14,16,18,20 -metric hit -plot
//	sweep -workload appbt -param depth -values 1,2,4,8 -metric eb
//	sweep -workload cgm -param assoc -values 1,2,4 -metric missrate
//
// Parameters: streams, depth, filter, czone, assoc, victim, latency.
// Metrics: hit (stream hit rate %), eb (extra bandwidth %),
// missrate (L1D miss %), cpi (effective CPI under default latencies).
//
// With -optimize the command searches a multi-dimensional space
// (internal/search) instead of sweeping one parameter, and answers
// the paper's cost-effectiveness questions:
//
//	sweep -optimize -workload mgrid -space 'streams=1,2,4,8;depth=1,2' -budget 32
//	sweep -optimize -workload mgrid -space 'streams=1,2,4,8' -strategy pareto \
//	      -constraint 'eb<=30' -seed 7
//
// Optimizer output is bit-reproducible for a fixed -seed at any
// -parallel width. -parallel applies only with -optimize: a sweep's
// points replay together, in one pass over the recorded trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"streamsim/internal/plot"
	"streamsim/internal/profiling"
	"streamsim/internal/search"
	"streamsim/internal/sweeprun"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run parses args and executes; separated from main for testing.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name   = fs.String("workload", "", "benchmark name (or 'custom:<seq>,<stride>,<random>' mix shares)")
		param  = fs.String("param", "", "parameter to sweep: "+sweeprun.ParamNames())
		values = fs.String("values", "", "comma-separated integer values")
		metric = fs.String("metric", "hit", "metric: hit, eb, missrate or cpi")
		scale  = fs.Float64("scale", 0.5, "workload iteration scale in (0, 1]")
		sizeS  = fs.String("size", "small", "input size: small or large")
		par    = fs.Int("parallel", 1, "with -optimize, evaluation groups per generation (0 = one per CPU); results are identical at any width")
		plotIt = fs.Bool("plot", false, "render the sweep as an ASCII chart")
		cpupr  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		mempr  = fs.String("memprofile", "", "write a heap profile to this file")

		optimize = fs.Bool("optimize", false, "search a multi-dimensional config space instead of sweeping one parameter")
		space    = fs.String("space", "", "optimizer space: 'param=v1,v2,...;param=...' (see -param for names)")
		strategy = fs.String("strategy", "halving", "optimizer strategy: halving, pareto or grid")
		seed     = fs.Int64("seed", 1, "optimizer sampling seed; a fixed seed is bit-reproducible at any -parallel width")
		budget   = fs.Int("budget", 256, "optimizer evaluation budget")
		scratch  = fs.Bool("scratch", false, "disable the optimizer's checkpointed incremental replay (same results, every rung re-simulated from window 0)")
	)
	var constraints []search.Constraint
	fs.Func("constraint", "optimizer winner constraint 'metric<=value' or 'metric>=value' over hit, eb, missrate or cost (repeatable)", func(v string) error {
		c, err := search.ParseConstraint(v)
		if err != nil {
			return err
		}
		constraints = append(constraints, c)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	stop, err := profiling.Start(*cpupr, *mempr)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stop(); err == nil {
			err = perr
		}
	}()
	if *optimize {
		parallel := *par
		if parallel == 0 {
			parallel = runtime.GOMAXPROCS(0)
		}
		if parallel < 0 {
			return fmt.Errorf("-parallel must be >= 0")
		}
		return runOptimize(ctx, optimizeArgs{
			workload: *name, size: *sizeS, scale: *scale, metric: *metric,
			space: *space, strategy: *strategy, seed: *seed, budget: *budget,
			constraints: constraints, parallel: parallel, scratch: *scratch,
		}, stdout, stderr)
	}
	parSet := false
	fs.Visit(func(f *flag.Flag) { parSet = parSet || f.Name == "parallel" })
	if parSet {
		return fmt.Errorf("-parallel applies only with -optimize")
	}
	if *name == "" || *param == "" || *values == "" {
		return fmt.Errorf("-workload, -param and -values are required")
	}
	var vals []int
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad value %q: %w", s, err)
		}
		vals = append(vals, v)
	}

	spec := sweeprun.Spec{
		Workload: *name,
		Size:     *sizeS,
		Param:    *param,
		Values:   vals,
		Metric:   *metric,
		Scale:    *scale,
	}
	t, series, err := sweeprun.Run(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, t.Render())
	if *plotIt {
		ticks := make([]string, 0, len(vals))
		for _, v := range vals {
			ticks = append(ticks, strconv.Itoa(v))
		}
		chart := &plot.Chart{
			Title:  t.Title,
			XLabel: *param, YLabel: *metric,
			XTicks: ticks,
			Series: []plot.Series{{Name: *name, Values: series}},
			Height: 16,
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, chart.Render())
	}
	return nil
}

// optimizeArgs carries the parsed -optimize flags.
type optimizeArgs struct {
	workload, size, metric string
	space, strategy        string
	scale                  float64
	seed                   int64
	budget, parallel       int
	constraints            []search.Constraint
	scratch                bool
}

// runOptimize executes the optimizer mode: the front table and winner
// line go to stdout (bit-reproducible for a fixed seed — and identical
// with or without -scratch), generation progress and the replay-cost
// summary to stderr.
func runOptimize(ctx context.Context, a optimizeArgs, stdout, stderr io.Writer) error {
	if a.workload == "" || a.space == "" {
		return fmt.Errorf("-workload and -space are required with -optimize")
	}
	dims, err := parseSpace(a.space)
	if err != nil {
		return err
	}
	spec := search.Spec{
		Workload: a.workload, Size: a.size, Scale: a.scale, Metric: a.metric,
		Space: dims, Strategy: a.strategy, Budget: a.budget, Seed: a.seed,
		Constraints: a.constraints, Parallel: a.parallel, Scratch: a.scratch,
	}
	res, err := search.RunProgress(ctx, spec, func(p search.Progress) {
		fmt.Fprintf(stderr, "gen %d: %d/%d evals, front %d", p.Generation, p.Evals, p.Budget, p.FrontSize)
		if p.WindowsResumed > 0 {
			fmt.Fprintf(stderr, ", windows %d resumed + %d replayed", p.WindowsResumed, p.WindowsReplayed)
		}
		fmt.Fprintln(stderr)
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Table().Render())
	fmt.Fprintln(stdout, res.Summary())
	if res.RefsScratch > 0 {
		saved := float64(res.RefsScratch) / float64(max64(res.RefsSimulated, 1))
		fmt.Fprintf(stderr, "refs: simulated %d of %d scratch (%.2fx saved), eval cache hits %d\n",
			res.RefsSimulated, res.RefsScratch, saved, res.CacheHits)
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// parseSpace parses 'param=v1,v2;param=v3,v4' into dimensions.
func parseSpace(s string) ([]search.Dim, error) {
	var dims []search.Dim
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, list, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad space dimension %q: want param=v1,v2,...", part)
		}
		d := search.Dim{Param: strings.TrimSpace(name)}
		for _, vs := range strings.Split(list, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(vs))
			if err != nil {
				return nil, fmt.Errorf("bad value %q in dimension %q: %w", vs, d.Param, err)
			}
			d.Values = append(d.Values, v)
		}
		dims = append(dims, d)
	}
	if len(dims) == 0 {
		return nil, fmt.Errorf("-space is empty")
	}
	return dims, nil
}
