package search

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

// tinySpec is the shared test optimization: a small two-dimensional
// space over a short mgrid recording.
func tinySpec() Spec {
	return Spec{
		Workload: "mgrid",
		Scale:    0.05,
		Space: []Dim{
			{Param: "streams", Values: []int{1, 4, 8}},
			{Param: "depth", Values: []int{1, 2}},
		},
		Budget: 12,
		Seed:   3,
	}
}

// mixedFrontSpec is tinySpec over a space whose candidates fall into
// four L1 front classes (assoc × victim), each with two stream sides,
// so every generation replays front-class leaders and followers
// together, and -parallel widths regroup the classes.
func mixedFrontSpec() Spec {
	s := tinySpec()
	s.Space = []Dim{
		{Param: "assoc", Values: []int{1, 4}},
		{Param: "victim", Values: []int{0, 4}},
		{Param: "streams", Values: []int{2, 8}},
	}
	return s
}

// TestRunDeterministicAcrossParallel is the acceptance gate for the
// optimizer's reproducibility: for a fixed seed the result is
// byte-identical across repeated runs and across -parallel widths, for
// both the grid oracle and seeded halving, on the stream-side space
// and on the mixed-front one.
//
//simlint:deterministic streamsim/internal/search.Run
func TestRunDeterministicAcrossParallel(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, spec func() Spec) {
		for _, strategy := range []string{"grid", "halving"} {
			t.Run(strategy, func(t *testing.T) {
				var want []byte
				for _, parallel := range []int{1, 2, 4} {
					s := spec()
					s.Strategy = strategy
					s.Parallel = parallel
					r, err := Run(ctx, s)
					if err != nil {
						t.Fatal(err)
					}
					// Parallelism is an execution knob, not part of the answer.
					r.Spec.Parallel = 0
					got, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = got
						continue
					}
					if string(got) != string(want) {
						t.Errorf("parallel=%d result diverges:\ngot  %s\nwant %s", parallel, got, want)
					}
				}
			})
		}
	}
	check(t, tinySpec)
	t.Run("mixed-front", func(t *testing.T) { check(t, mixedFrontSpec) })
}

// TestScratchMatchesIncremental is the checkpoint layer's equivalence
// gate at package level: for every strategy, a run with the
// incremental-replay layer enabled must decide exactly what a
// Spec.Scratch run decides — same winner, front, peak, eval count and
// per-eval scores — while halving actually replays fewer references.
// Only the replay-cost accounting fields may differ. Two inputs:
//
//   - applu's small input is an 8-window trace, so halving's rung
//     schedule hits the minRungWindows floor and repeated window counts
//     are served from the eval memo. The mixed-front space checkpoints
//     front-class followers and resumes them in new groups.
//   - spec77's is a 79-window trace, long enough that the finalists'
//     full-trace scores must resume from their last rung checkpoints.
func TestScratchMatchesIncremental(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, spec func() Spec, workload string) {
		for _, strategy := range []string{"halving", "pareto", "grid"} {
			t.Run(strategy, func(t *testing.T) {
				// fullResumed is the windows the incremental run's
				// full-trace rungs skipped by restoring checkpoints.
				var fullResumed int
				run := func(scratch bool) *Result {
					s := spec()
					s.Workload = workload
					s.Strategy = strategy
					s.Scratch = scratch
					r, err := RunProgress(ctx, s, func(p Progress) {
						if !scratch && p.Windows == 0 {
							fullResumed += p.WindowsResumed
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				scratch := run(true)
				incr := run(false)
				if scratch.RefsSimulated != scratch.RefsScratch {
					t.Errorf("scratch run claims a saving: simulated %d of %d",
						scratch.RefsSimulated, scratch.RefsScratch)
				}
				if incr.RefsScratch != scratch.RefsScratch {
					t.Errorf("scratch-equivalent work diverges: %d vs %d",
						incr.RefsScratch, scratch.RefsScratch)
				}
				if strategy == "halving" {
					if incr.RefsSimulated >= scratch.RefsSimulated {
						t.Errorf("incremental halving replayed %d refs, scratch %d — no saving",
							incr.RefsSimulated, scratch.RefsSimulated)
					}
					if fullResumed == 0 {
						t.Error("incremental halving scored its finalists on the full trace from window 0")
					}
					if workload == "applu" && incr.CacheHits == 0 {
						t.Error("incremental halving served no evaluation from the memo")
					}
				}
				// Decisions must be byte-identical; only the cost accounting
				// may differ between the two modes.
				norm := func(r *Result) string {
					r.Spec.Scratch = false
					r.RefsSimulated, r.RefsScratch, r.CacheHits = 0, 0, 0
					b, err := json.Marshal(r)
					if err != nil {
						t.Fatal(err)
					}
					return string(b)
				}
				if got, want := norm(incr), norm(scratch); got != want {
					t.Errorf("incremental result diverges from scratch:\ngot  %s\nwant %s", got, want)
				}
			})
		}
	}
	check(t, tinySpec, "applu")
	t.Run("mixed-front", func(t *testing.T) { check(t, mixedFrontSpec, "applu") })
	t.Run("long-trace", func(t *testing.T) { check(t, tinySpec, "spec77") })
}

// TestHalvingMatchesGridWinner checks the optimize-smoke property at
// package level: on a space the budget can cover, seeded successive
// halving converges on the same winner the exhaustive grid finds.
func TestHalvingMatchesGridWinner(t *testing.T) {
	ctx := context.Background()
	run := func(strategy string) *Result {
		s := tinySpec()
		s.Space = []Dim{{Param: "streams", Values: []int{1, 2, 4, 8}}}
		s.Strategy = strategy
		s.Budget = 16
		r, err := Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Winner == nil {
			t.Fatalf("%s found no winner", strategy)
		}
		return r
	}
	grid := run("grid")
	halving := run("halving")
	if grid.Summary() != halving.Summary() {
		t.Errorf("winners diverge:\ngrid    %s\nhalving %s", grid.Summary(), halving.Summary())
	}
	if halving.Winner.Windows != 0 {
		t.Errorf("halving winner scored on %d-window prefix, want full trace", halving.Winner.Windows)
	}
	if grid.Evals != 4 {
		t.Errorf("grid spent %d evals over a 4-point space", grid.Evals)
	}
	if halving.Evals > 16 {
		t.Errorf("halving spent %d evals, budget 16", halving.Evals)
	}
}

// TestParetoFrontImproves checks the streaming contract the service
// relies on: each generation's snapshot only improves — evaluations
// accumulate, the best objective never regresses, and every run stays
// within budget.
func TestParetoFrontImproves(t *testing.T) {
	ctx := context.Background()
	s := tinySpec()
	s.Strategy = "pareto"
	// A grid larger than the budget forces the sampled-then-neighbors
	// path, so several generations stream.
	s.Space = []Dim{
		{Param: "streams", Values: []int{1, 2, 4, 8}},
		{Param: "depth", Values: []int{1, 2}},
	}
	s.Budget = 6
	s = s.WithDefaults()
	var snaps []Progress
	r, err := RunProgress(ctx, s, func(p Progress) { snaps = append(snaps, p) })
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("want several generations, got %d snapshot(s)", len(snaps))
	}
	for i, p := range snaps {
		if p.Strategy != "pareto" || p.Budget != s.Budget {
			t.Errorf("snapshot %d mislabelled: %+v", i, p)
		}
		if p.FrontSize != len(p.Front) {
			t.Errorf("snapshot %d front_size %d != len(front) %d", i, p.FrontSize, len(p.Front))
		}
		if p.Best == nil {
			t.Fatalf("snapshot %d has no best", i)
		}
		if i == 0 {
			continue
		}
		prev := snaps[i-1]
		if p.Evals <= prev.Evals {
			t.Errorf("snapshot %d evals %d did not grow from %d", i, p.Evals, prev.Evals)
		}
		if score(s.Metric, *p.Best) < score(s.Metric, *prev.Best) {
			t.Errorf("snapshot %d best regressed: %v after %v", i, *p.Best, *prev.Best)
		}
	}
	if r.Evals > s.Budget {
		t.Errorf("spent %d evals, budget %d", r.Evals, s.Budget)
	}
	if len(r.Front) == 0 || r.Winner == nil {
		t.Fatalf("degenerate result: %+v", r)
	}
	// The front is sorted by ascending cost and mutually non-dominated
	// on (score, cost).
	for i := 1; i < len(r.Front); i++ {
		if r.Front[i-1].Cost > r.Front[i].Cost {
			t.Errorf("front not cost-sorted at %d", i)
		}
		if score(s.Metric, r.Front[i]) <= score(s.Metric, r.Front[i-1]) {
			t.Errorf("front point %d does not improve the metric", i)
		}
	}
}

// TestParetoHeapIndependentOfBudget: Validate bounds the grid but not
// the budget, so nothing a pareto run allocates may grow with the
// budget. Over a two-value space a run makes two evaluations at any
// budget; at budget 2^22 it must allocate no more than a few MiB,
// where sizing its seen-set by the budget took over 200.
func TestParetoHeapIndependentOfBudget(t *testing.T) {
	ctx := context.Background()
	s := tinySpec()
	s.Strategy = "pareto"
	s.Space = []Dim{{Param: "streams", Values: []int{1, 4}}}
	s.Budget = 4
	// The first run records the trace, so the measured one allocates
	// only what the search itself needs.
	if _, err := Run(ctx, s); err != nil {
		t.Fatal(err)
	}
	s.Budget = 1 << 22
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := Run(ctx, s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if r.Evals != 2 {
		t.Errorf("pareto over a two-value space made %d evaluations, want 2", r.Evals)
	}
	const bound = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("pareto run at budget %d allocated %.1f MiB, want at most %d MiB",
			s.Budget, float64(got)/(1<<20), bound>>20)
	}
}

// TestConstraintsAndCheapestWithin exercises the paper's two
// questions: the winner under a cost budget, and the cheapest
// configuration within 1% of peak.
func TestConstraintsAndCheapestWithin(t *testing.T) {
	ctx := context.Background()
	base := tinySpec()
	base.Space = []Dim{{Param: "streams", Values: []int{1, 8}}}
	base.Strategy = "grid"
	free, err := Run(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	if free.Winner == nil || free.Peak == nil {
		t.Fatal("unconstrained run found no winner")
	}
	if free.Winner.Config != free.Peak.Config {
		t.Errorf("without constraints winner %q != peak %q", free.Winner.Config, free.Peak.Config)
	}
	if free.Peak.Config != "streams=8" {
		t.Fatalf("peak %q, expected more streams to win on hit rate", free.Peak.Config)
	}

	// Cap cost just under the peak's: the cheaper config must win while
	// the peak stays the peak.
	s := base
	s.Constraints = []Constraint{{Metric: "cost", Op: "<=", Value: free.Peak.Cost - 1}}
	capped, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Winner == nil || capped.Winner.Config != "streams=1" {
		t.Fatalf("cost-capped winner = %+v, want streams=1", capped.Winner)
	}
	if capped.Peak == nil || capped.Peak.Config != "streams=8" {
		t.Errorf("constraints must not restrict the peak: %+v", capped.Peak)
	}

	// An unsatisfiable constraint yields no winner but keeps the front.
	s.Constraints = []Constraint{{Metric: "hit", Op: ">=", Value: 101}}
	none, err := Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if none.Winner != nil {
		t.Errorf("impossible constraint still chose %+v", none.Winner)
	}
	if len(none.Front) == 0 {
		t.Error("impossible constraint emptied the front")
	}
	if !strings.Contains(none.Summary(), "none") {
		t.Errorf("Summary() = %q, want a no-winner line", none.Summary())
	}

	// CheapestWithin(0) is the peak itself (or a cost-tied equal);
	// CheapestWithin(1) admits everything, so it's the cheapest front
	// point.
	if c := free.CheapestWithin(0); c == nil || c.MetricValue("hit") < free.Peak.Hit {
		t.Errorf("CheapestWithin(0) = %+v, want the peak's hit rate", c)
	}
	if c := free.CheapestWithin(1); c == nil || c.Cost != free.Front[0].Cost {
		t.Errorf("CheapestWithin(1) = %+v, want the cheapest front point", c)
	}
}

// TestRunCancelMidGeneration cancels from the first progress callback
// and expects the optimizer to stop with context.Canceled instead of
// finishing the remaining generations.
func TestRunCancelMidGeneration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := tinySpec()
	s.Strategy = "pareto"
	// Grid (6) larger than the budget's initial sample, so more
	// generations would follow if cancellation were ignored.
	s.Budget = 5
	calls := 0
	_, err := RunProgress(ctx, s, func(Progress) {
		calls++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunProgress = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Errorf("optimizer kept going for %d generations after cancel", calls)
	}
}

func TestValidate(t *testing.T) {
	ok := tinySpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no workload", func(s *Spec) { s.Workload = "" }, "workload"},
		{"bad metric", func(s *Spec) { s.Metric = "ipc" }, "metric"},
		{"bad strategy", func(s *Spec) { s.Strategy = "anneal" }, "strategy"},
		{"bad scale", func(s *Spec) { s.Scale = 2 }, "scale"},
		{"NaN scale", func(s *Spec) { s.Scale = math.NaN() }, "scale"},
		{"+Inf scale", func(s *Spec) { s.Scale = math.Inf(1) }, "scale"},
		{"-Inf scale", func(s *Spec) { s.Scale = math.Inf(-1) }, "scale"},
		{"scale just above 1", func(s *Spec) { s.Scale = math.Nextafter(1, 2) }, "scale"},
		{"empty space", func(s *Spec) { s.Space = nil }, "dimension"},
		{"unknown param", func(s *Spec) { s.Space[0].Param = "warp" }, "unknown parameter"},
		{"duplicate param", func(s *Spec) { s.Space[1].Param = "streams" }, "two dimensions"},
		{"empty values", func(s *Spec) { s.Space[0].Values = nil }, "no values"},
		{"duplicate value", func(s *Spec) { s.Space[0].Values = []int{4, 4} }, "duplicate value"},
		{"negative parallel", func(s *Spec) { s.Parallel = -1 }, "parallel"},
		{"grid over budget", func(s *Spec) { s.Strategy = "grid"; s.Budget = 3 }, "grid strategy"},
		{"bad constraint metric", func(s *Spec) {
			s.Constraints = []Constraint{{Metric: "cpi", Op: "<=", Value: 1}}
		}, "constraint metric"},
		{"bad constraint op", func(s *Spec) {
			s.Constraints = []Constraint{{Metric: "eb", Op: "<", Value: 1}}
		}, "constraint op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tinySpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestParseConstraint(t *testing.T) {
	c, err := ParseConstraint("eb<=30")
	if err != nil {
		t.Fatal(err)
	}
	if c != (Constraint{Metric: "eb", Op: "<=", Value: 30}) {
		t.Errorf("ParseConstraint = %+v", c)
	}
	if c.String() != "eb<=30" {
		t.Errorf("String = %q", c.String())
	}
	c, err = ParseConstraint(" hit >= 58.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if c.Metric != "hit" || c.Op != ">=" || c.Value != 58.5 {
		t.Errorf("ParseConstraint = %+v", c)
	}
	for _, bad := range []string{"", "eb=30", "eb<=x", "eb"} {
		if _, err := ParseConstraint(bad); err == nil {
			t.Errorf("ParseConstraint(%q) accepted", bad)
		}
	}
}

// TestEnumerateAndNeighbors pins candidate-generation order, which the
// deterministic strategies depend on.
func TestEnumerateAndNeighbors(t *testing.T) {
	dims := []Dim{
		{Param: "streams", Values: []int{1, 2}},
		{Param: "depth", Values: []int{1, 2, 3}},
	}
	var got []string
	for _, c := range enumerate(dims) {
		got = append(got, c.key())
	}
	want := []string{"1,1", "1,2", "1,3", "2,1", "2,2", "2,3"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("enumerate = %v, want %v", got, want)
	}
	var nb []string
	for _, c := range neighbors(candidate{2, 2}, dims) {
		nb = append(nb, c.key())
	}
	wantNb := []string{"1,2", "2,1", "2,3"}
	if strings.Join(nb, " ") != strings.Join(wantNb, " ") {
		t.Errorf("neighbors = %v, want %v", nb, wantNb)
	}
}
