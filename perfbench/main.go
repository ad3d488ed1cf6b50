// Command perfbench is the repository's benchmark. One invocation runs
// one workload in its own process:
//
//   - paper: every artefact of the paper, as paperexp -exp all runs it;
//   - explore: three seeded successive-halving optimizations;
//   - simd: a closed loop of two clients submitting jobs to an
//     in-process simd server over loopback HTTP.
//
// It checks every operation's output, then prints the metrics and, as
// its last line, one JSON object:
//
//	{"correct": true, "attempted": 13, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (set-up time, run
// time, peak memory). With -trace 1 the run first re-runs itself
// untraced in a child process, then runs traced — spans around every
// call into the simulator's packages and a CPU profile of every timed
// unit — and adds a layer probe on the workload's own inputs; the
// metrics are then the per-layer ones. See README.md for the
// workloads, the metrics and how each layer metric should move the
// end-to-end ones.
//
// Usage (from the repository root; run.py builds and runs this):
//
//	python3 perfbench/run.py --workload paper --seed 1 --seconds 8 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// metric is one named figure of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one printed figure: a metric with its unit and sample count
// (n = 0 for a single measurement or a count).
type row struct {
	name  string
	value float64
	unit  string
	n     int
}

// runCfg is what every workload receives.
type runCfg struct {
	seed    int64
	seconds float64
	rec     *recorder // nil when untraced
	prof    *profiler // nil when untraced
}

// units is how many timed units a run measures: as many whole units of
// the workload's nominal length (on the two-core reference host) as
// fill the requested seconds, at least one. It depends on the request
// alone, never on measured speed, so two commits compared at the same
// setting do the same work.
func (c runCfg) units(nominal float64) int {
	return max(1, int(c.seconds/nominal+0.5))
}

// report is what a workload measured.
type report struct {
	setupS    []float64 // one sample per set-up
	runS      []float64 // host wall time of each timed unit of work
	runCPU    []float64 // host CPU time of each timed unit, all threads
	opMS      []float64 // latency of each fresh operation in the timed phase, ms
	attempted int       // operations run, checks included
	failed    int       // operations that errored or failed their check
	rows      []row     // workload figures printed beside the metrics
	peakRSSMB float64   // sampled before any probe runs

	// Layer accounting, used only by traced runs.
	layer     map[string]float64 // per-layer counters (JSON)
	layerRows []row              // per-layer figures printed only
	probe     []probeInput       // the workload's own inputs
}

func (r *report) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

type workloadFunc func(ctx context.Context, c runCfg) (*report, error)

var workloads = map[string]workloadFunc{
	"paper":   runPaper,
	"explore": runExplore,
	"simd":    runSimd,
}

// endToEnd lists the end-to-end metrics every workload reports, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MiB"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: paper, explore or simd")
		seed    = fs.Int64("seed", 1, "workload seed (explore and simd draw their inputs from it)")
		seconds = fs.Float64("seconds", 8, "nominal length of the timed phase in seconds (whole timed units, at least one)")
		traced  = fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
		spans   = fs.String("spans", "", "traced runs: write the spans as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: want -workload paper|explore|simd, -seconds > 0 and -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	c := runCfg{seed: *seed, seconds: *seconds}

	var untraced *result
	if *traced == 1 {
		var err error
		if untraced, err = runUntracedChild(ctx, args, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: untraced baseline:", err)
			return 1
		}
		c.rec, c.prof = newRecorder(), newProfiler()
	}
	rep, err := w(ctx, c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	e2e := endToEndMetrics(rep)
	fmt.Fprintf(stdout, "workload %s, seed %d, trace %d\n", *name, *seed, *traced)
	printRows(stdout, "end to end", append(e2eRows(rep, e2e), rep.rows...))

	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: e2e}
	if *traced == 1 {
		lm, rows, table, err := layerMetrics(ctx, rep, c.prof, e2e, untraced.Metrics)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s layer probe: %v\n", *name, err)
			return 1
		}
		printRows(stdout, "per layer", rows)
		fmt.Fprint(stdout, table)
		printSelfTimes(stdout, c.rec.snapshot(), e2e["run_s"].Value)
		if *spans != "" {
			if err := c.rec.write(*spans); err != nil {
				fmt.Fprintln(stderr, "perfbench: writing spans:", err)
				return 1
			}
		}
		res.Metrics = lm
		res.Attempted += untraced.Attempted
		res.Failed += untraced.Failed
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "attempted %d, failed %d\n", res.Attempted, res.Failed)
	fmt.Fprintln(stdout, string(line))
	return 0
}

// endToEndMetrics reduces a report to the end-to-end metrics.
func endToEndMetrics(rep *report) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(rep.setupS), "s"},
		"run_s":       {median(rep.runS), "s"},
		"peak_rss_mb": {rep.peakRSSMB, "MiB"},
	}
}

// e2eRows are the printed end-to-end figures: the metrics, then the
// timed unit's CPU time and the median latency of a fresh operation.
func e2eRows(rep *report, m map[string]metric) []row {
	n := map[string]int{"setup_s": len(rep.setupS), "run_s": len(rep.runS)}
	rows := make([]row, 0, len(endToEnd)+2)
	for _, e := range endToEnd {
		rows = append(rows, row{e.name, m[e.name].Value, e.unit, n[e.name]})
	}
	return append(rows,
		row{"run_cpu_s", median(rep.runCPU), "s", len(rep.runCPU)},
		row{"op_p50_ms", median(rep.opMS), "ms", len(rep.opMS)})
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stopwatch measures one timed unit in host wall time and in the
// process's CPU time.
type stopwatch struct {
	t0   time.Time
	cpu0 float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// record appends the unit's wall and CPU seconds to the report.
func (w stopwatch) record(rep *report) {
	rep.runS = append(rep.runS, time.Since(w.t0).Seconds())
	rep.runCPU = append(rep.runCPU, cpuSeconds()-w.cpu0)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runUntracedChild re-runs this binary with -trace 0 and returns its
// result line, the baseline the tracing overhead is measured against.
// Running it in its own process keeps its peak memory and warm caches
// apart from the traced run's.
func runUntracedChild(ctx context.Context, args []string, stderr io.Writer) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, self, append(args, "-trace", "0", "-spans", "")...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	return lastResult(out.Bytes())
}

// lastResult parses the JSON object on the last non-empty line.
func lastResult(b []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &r, nil
}

func printRows(w io.Writer, title string, rows []row) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, r := range rows {
		n := ""
		if r.n > 0 {
			n = "n=" + strconv.Itoa(r.n)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-8s %s\n", r.name, r.value, r.unit, n)
	}
}

// printSelfTimes prints the traced spans' self time by span name, with
// each name's share of the median timed unit.
func printSelfTimes(w io.Writer, spans []span, runS float64) {
	self := selfTimes(spans)
	tot := map[string]float64{}
	cnt := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := tot[s.Name]; !ok {
			names = append(names, s.Name)
		}
		tot[s.Name] += self[s.ID]
		cnt[s.Name]++
	}
	sort.SliceStable(names, func(i, j int) bool { return tot[names[i]] > tot[names[j]] })
	fmt.Fprintf(w, "span self time (%d spans; share = self / timed units / run_s, over 100%% where spans run concurrently):\n", len(spans))
	units := float64(cnt["run"])
	for _, n := range names {
		share := 0.0
		if runS > 0 && units > 0 {
			share = 100 * tot[n] / units / runS
		}
		fmt.Fprintf(w, "  %-34s %10.4f s  n=%-5d %6.1f%%\n", n, tot[n], cnt[n], share)
	}
}

// timeIt runs fn and returns its host time in seconds.
func timeIt(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}
