// Package search is the adaptive config-space optimizer over the
// fan-out replay engine: instead of enumerating a grid the way
// internal/sweeprun does, it explores the multi-dimensional
// (streams, depth, filter, czone, ...) space adaptively and answers
// the paper's cost-effectiveness question directly — "best hit rate
// under an extra-bandwidth budget", "cheapest configuration within 1%
// of peak".
//
// Three strategies share one batched evaluator:
//
//   - halving: successive halving — score a generation of candidates
//     on a few sample windows (core.ReplayStoreMultiPrefixFrom decodes
//     the prefix once for the whole generation), keep the top half, and
//     re-evaluate survivors on progressively longer prefixes until the
//     finalists run the full trace;
//   - pareto: Pareto-front exploration over (metric, cost) — evaluate
//     a seeded sample on the full trace, then keep expanding the
//     neighborhood of the current cost.Front until the budget is
//     spent;
//   - grid: exhaustive evaluation, the oracle the optimize-smoke CI
//     gate compares the seeded strategies against.
//
// Everything is deterministic by construction: candidate generation
// draws from a rand.Rand seeded by Spec.Seed, evaluation goes through
// replay entry points that are machine-independent and identical at
// any parallelism width, and ties break by candidate order. A fixed
// seed therefore reproduces the same result bit-for-bit on any host at
// any -parallel width.
package search

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"streamsim/internal/cost"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
)

// Dim is one dimension of the candidate space: a sweepable parameter
// (a sweeprun.ParamSet key) and its admissible values, in order. The
// pareto strategy's neighborhood moves step along this order.
type Dim struct {
	// Param names the parameter (see sweeprun.ParamNames).
	Param string `json:"param"`
	// Values are the admissible settings, in presentation order.
	Values []int `json:"values"`
}

// Constraint bounds one metric of an acceptable configuration, e.g.
// {Metric: "eb", Op: "<=", Value: 30} — the paper's "extra bandwidth
// budget". Constraints restrict the winner, never the explored front.
type Constraint struct {
	// Metric is hit, eb, missrate or cost.
	Metric string `json:"metric"`
	// Op is "<=" or ">=".
	Op string `json:"op"`
	// Value is the bound.
	Value float64 `json:"value"`
}

// ParseConstraint parses the CLI form "metric<=value" or
// "metric>=value".
func ParseConstraint(s string) (Constraint, error) {
	for _, op := range []string{"<=", ">="} {
		if m, v, ok := strings.Cut(s, op); ok {
			val, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return Constraint{}, fmt.Errorf("search: bad constraint value in %q: %w", s, err)
			}
			return Constraint{Metric: strings.TrimSpace(m), Op: op, Value: val}, nil
		}
	}
	return Constraint{}, fmt.Errorf("search: constraint %q wants the form metric<=value or metric>=value", s)
}

// String renders the CLI form back.
func (c Constraint) String() string {
	return c.Metric + c.Op + strconv.FormatFloat(c.Value, 'g', -1, 64)
}

// Spec describes one optimization. Zero values of the optional fields
// mean small / hit / 0.5 / halving / 256 evaluations / seed 1.
type Spec struct {
	// Workload is a benchmark name from the paper's Table 1, or a
	// "custom:<seq>,<stride>,<random>" mix.
	Workload string `json:"workload"`
	// Size is the input size: "small" (default) or "large".
	Size string `json:"size,omitempty"`
	// Scale is the workload iteration scale in (0, 1] (default 0.5).
	Scale float64 `json:"scale,omitempty"`
	// Metric is the objective: hit (maximized), eb or missrate
	// (minimized). Default hit.
	Metric string `json:"metric,omitempty"`
	// Space is the candidate space, one Dim per parameter.
	Space []Dim `json:"space"`
	// Strategy is halving (default), pareto or grid.
	Strategy string `json:"strategy,omitempty"`
	// Budget caps the total number of candidate evaluations (default
	// 256). The grid strategy requires Budget >= the full grid size.
	Budget int `json:"budget,omitempty"`
	// Seed seeds candidate sampling; a fixed seed reproduces the run
	// bit-for-bit (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Constraints restrict the winner (not the front).
	Constraints []Constraint `json:"constraints,omitempty"`
	// Parallel is the number of evaluation groups a generation is
	// split across. 0 and 1 both mean one group. Results are identical
	// at any width; only wall-clock time changes.
	Parallel int `json:"parallel,omitempty"`
	// Scratch disables the checkpointed incremental-replay layer:
	// every halving rung then re-simulates survivors from window 0 and
	// no evaluation is served from the eval memo — the pre-checkpoint
	// behaviour. Winners, fronts and eval counts are identical either
	// way; the flag exists for benchmarking the saving and for the CI
	// equivalence gate (make optimize-smoke).
	Scratch bool `json:"scratch,omitempty"`
}

// WithDefaults fills unset optional fields; the service hashes the
// defaulted form so explicit defaults and omitted fields memoize to
// the same job.
func (s Spec) WithDefaults() Spec {
	if s.Size == "" {
		s.Size = "small"
	}
	if s.Metric == "" {
		s.Metric = "hit"
	}
	if s.Scale == 0 {
		s.Scale = 0.5
	}
	if s.Strategy == "" {
		s.Strategy = "halving"
	}
	if s.Budget == 0 {
		s.Budget = 256
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// maxGrid bounds the cross-product size Validate accepts, far above
// any realistic space but low enough to fail fast on a typo'd one.
const maxGrid = 1 << 20

// Validate rejects malformed specs without running anything.
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.Workload == "" {
		return fmt.Errorf("search: workload is required")
	}
	if _, err := sweeprun.BuildWorkload(s.Workload, s.Size); err != nil {
		return err
	}
	switch s.Metric {
	case "hit", "eb", "missrate":
	default:
		return fmt.Errorf("search: unknown objective metric %q (hit, eb or missrate)", s.Metric)
	}
	if !(s.Scale > 0 && s.Scale <= 1) {
		return fmt.Errorf("search: scale %v outside (0, 1]", s.Scale)
	}
	switch s.Strategy {
	case "halving", "pareto", "grid":
	default:
		return fmt.Errorf("search: unknown strategy %q (halving, pareto or grid)", s.Strategy)
	}
	if s.Budget < 1 {
		return fmt.Errorf("search: budget %d must be >= 1", s.Budget)
	}
	if s.Parallel < 0 {
		return fmt.Errorf("search: parallel %d must be >= 0", s.Parallel)
	}
	if len(s.Space) == 0 {
		return fmt.Errorf("search: space needs at least one dimension")
	}
	grid := 1
	dimSeen := make(map[string]bool, len(s.Space))
	for _, d := range s.Space {
		if _, ok := sweeprun.ParamSet[d.Param]; !ok {
			return fmt.Errorf("search: unknown parameter %q (available: %s)", d.Param, sweeprun.ParamNames())
		}
		if dimSeen[d.Param] {
			return fmt.Errorf("search: parameter %q appears in two dimensions", d.Param)
		}
		dimSeen[d.Param] = true
		if len(d.Values) == 0 {
			return fmt.Errorf("search: dimension %q has no values", d.Param)
		}
		valSeen := make(map[int]bool, len(d.Values))
		for _, v := range d.Values {
			if valSeen[v] {
				return fmt.Errorf("search: duplicate value %d in dimension %q", v, d.Param)
			}
			valSeen[v] = true
			if _, err := sweeprun.ParamSet[d.Param].Point(v); err != nil {
				return fmt.Errorf("search: %s=%d: %w", d.Param, v, err)
			}
		}
		if grid > maxGrid/len(d.Values) {
			return fmt.Errorf("search: space larger than %d configurations", maxGrid)
		}
		grid *= len(d.Values)
	}
	if s.Strategy == "grid" && grid > s.Budget {
		return fmt.Errorf("search: grid strategy needs budget >= grid size (%d > %d)", grid, s.Budget)
	}
	for _, c := range s.Constraints {
		switch c.Metric {
		case "hit", "eb", "missrate", "cost":
		default:
			return fmt.Errorf("search: unknown constraint metric %q (hit, eb, missrate or cost)", c.Metric)
		}
		if c.Op != "<=" && c.Op != ">=" {
			return fmt.Errorf("search: constraint op %q must be <= or >=", c.Op)
		}
	}
	return nil
}

// Eval is one scored candidate.
type Eval struct {
	// Config is the human-readable assignment, e.g. "streams=8 depth=2".
	Config string `json:"config"`
	// Values are the assigned values, parallel to Spec.Space.
	Values []int `json:"values"`
	// Hit, EB and MissRate are the replayed metrics (percent).
	Hit      float64 `json:"hit"`
	EB       float64 `json:"eb"`
	MissRate float64 `json:"missrate"`
	// Cost is the priced node (internal/cost, default prices).
	Cost float64 `json:"cost"`
	// Windows is the prefix length the score came from: 0 means the
	// full trace, n > 0 means only the first n sample windows (an
	// early halving rung).
	Windows int `json:"windows,omitempty"`
}

// MetricValue returns one named metric of the evaluation.
func (e Eval) MetricValue(name string) float64 {
	switch name {
	case "hit":
		return e.Hit
	case "eb":
		return e.EB
	case "missrate":
		return e.MissRate
	default:
		return e.Cost
	}
}

// score converts the objective metric into a higher-is-better value.
func score(metric string, e Eval) float64 {
	v := e.MetricValue(metric)
	if metric == "hit" {
		return v
	}
	return -v
}

// satisfies reports whether an evaluation meets every constraint.
func satisfies(e Eval, cs []Constraint) bool {
	for _, c := range cs {
		v := e.MetricValue(c.Metric)
		if c.Op == "<=" && v > c.Value {
			return false
		}
		if c.Op == ">=" && v < c.Value {
			return false
		}
	}
	return true
}

// Progress is one generation's snapshot, streamed as NDJSON by the
// service's /v1/optimize endpoint. The front only improves between
// snapshots: it is recomputed over every full-trace evaluation so far.
type Progress struct {
	// Strategy echoes the running strategy.
	Strategy string `json:"strategy"`
	// Generation counts evaluation rounds (halving rungs, pareto
	// generations), from 0.
	Generation int `json:"generation"`
	// Evals is the total candidate evaluations spent so far.
	Evals int `json:"evals"`
	// Budget echoes Spec.Budget.
	Budget int `json:"budget"`
	// Windows is the prefix length this generation was scored on
	// (0 = full trace).
	Windows int `json:"windows,omitempty"`
	// WindowsResumed and WindowsReplayed split the generation's window
	// work across its candidates: windows skipped by restoring rung
	// checkpoints versus windows actually replayed. Both zero for
	// strategies that don't checkpoint (pareto, grid) and under
	// Spec.Scratch.
	WindowsResumed  int `json:"windows_resumed,omitempty"`
	WindowsReplayed int `json:"windows_replayed,omitempty"`
	// FrontSize is len(Front).
	FrontSize int `json:"front_size"`
	// Best is the best-scoring evaluation of the deepest rung reached.
	Best *Eval `json:"best,omitempty"`
	// Front is the current (metric, cost) Pareto front, ascending cost.
	Front []Eval `json:"front,omitempty"`
}

// Result is a finished optimization.
type Result struct {
	// Spec echoes the defaulted spec.
	Spec Spec `json:"spec"`
	// Evals is the total number of candidate evaluations spent.
	Evals int `json:"evals"`
	// Front is the (metric, cost) Pareto front over every full-trace
	// evaluation, ascending cost.
	Front []Eval `json:"front"`
	// Winner is the best-objective full-trace evaluation satisfying
	// every constraint (nil when none does). With no constraints it is
	// the peak.
	Winner *Eval `json:"winner,omitempty"`
	// Peak is the best-objective full-trace evaluation regardless of
	// constraints — the reference for CheapestWithin.
	Peak *Eval `json:"peak,omitempty"`
	// RefsSimulated counts the trace references actually replayed, and
	// RefsScratch the references the same evaluations would have
	// replayed without the incremental layer (they are equal under
	// Spec.Scratch). Their ratio is the checkpoint/memo saving the
	// optimize-smoke gate asserts.
	RefsSimulated int64 `json:"refs_simulated,omitempty"`
	RefsScratch   int64 `json:"refs_scratch,omitempty"`
	// CacheHits counts evaluations served from the eval memo without
	// replaying anything (still charged against Budget, so budget
	// accounting matches a scratch run exactly).
	CacheHits int `json:"cache_hits,omitempty"`
}

// CheapestWithin returns the cheapest front configuration whose
// objective is within frac (e.g. 0.01 for 1%) of the peak's, or nil
// when there is no front. For minimized metrics "within frac" means at
// most (1+frac) times the peak value.
func (r *Result) CheapestWithin(frac float64) *Eval {
	if r.Peak == nil {
		return nil
	}
	peak := r.Peak.MetricValue(r.Spec.Metric)
	for i := range r.Front { // ascending cost: first admissible is cheapest
		e := &r.Front[i]
		v := e.MetricValue(r.Spec.Metric)
		ok := false
		if r.Spec.Metric == "hit" {
			ok = v >= peak*(1-frac)
		} else {
			ok = v <= peak*(1+frac)
		}
		if ok {
			return e
		}
	}
	return nil
}

// Summary is the one-line answer, stable across strategies that find
// the same winner — the optimize-smoke CI gate compares it between
// seeded halving and the exhaustive grid.
func (r *Result) Summary() string {
	if r.Winner == nil {
		return "winner: none (no configuration satisfies the constraints)"
	}
	w := r.Winner
	return fmt.Sprintf("winner: %s %s=%.4f cost=$%.0f", w.Config, r.Spec.Metric, w.MetricValue(r.Spec.Metric), w.Cost)
}

// Table renders the front for the CLI and the service job store.
func (r *Result) Table() *tab.Table {
	dims := make([]string, len(r.Spec.Space))
	for i, d := range r.Spec.Space {
		dims[i] = d.Param
	}
	t := &tab.Table{
		Title:   fmt.Sprintf("%s: optimize %s over %s (%s)", r.Spec.Workload, r.Spec.Metric, strings.Join(dims, ","), r.Spec.Strategy),
		Columns: []string{"front", "config", r.Spec.Metric, "eb", "cost $"},
	}
	for i, e := range r.Front {
		t.AddRow(strconv.Itoa(i+1), e.Config, tab.F(e.MetricValue(r.Spec.Metric)), tab.F(e.EB), tab.F(e.Cost))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d evaluations of %d budget, seed %d", r.Evals, r.Spec.Budget, r.Spec.Seed),
		r.Summary(),
	)
	for _, c := range r.Spec.Constraints {
		t.Notes = append(t.Notes, "constraint: "+c.String())
	}
	if cheap := r.CheapestWithin(0.01); cheap != nil {
		t.Notes = append(t.Notes,
			fmt.Sprintf("cheapest within 1%% of peak: %s %s=%.4f cost=$%.0f",
				cheap.Config, r.Spec.Metric, cheap.MetricValue(r.Spec.Metric), cheap.Cost))
	}
	return t
}

// evalsTotal, evalCacheHits and lastFrontSize back the service's
// search_* gauges.
var (
	evalsTotal    atomic.Uint64
	evalCacheHits atomic.Uint64
	lastFrontSize atomic.Int64
)

// EvalsTotal reports the number of candidate evaluations this process
// has performed across all optimizations.
func EvalsTotal() uint64 { return evalsTotal.Load() }

// EvalCacheHits reports how many of those evaluations were served from
// the generation-spanning eval memo without replaying anything.
func EvalCacheHits() uint64 { return evalCacheHits.Load() }

// LastFrontSize reports the Pareto-front size of the most recent
// optimization (its latest generation while one is running).
func LastFrontSize() int { return int(lastFrontSize.Load()) }

// Run executes the optimization and returns the result. A fixed seed
// is bit-reproducible on any host at any Spec.Parallel width.
//
//simlint:deterministic
func Run(ctx context.Context, s Spec) (*Result, error) {
	return RunProgress(ctx, s, nil)
}

// RunProgress is Run with a per-generation progress callback (nil is
// allowed). The callback runs on the optimizer's goroutine between
// generations; it must not block indefinitely.
func RunProgress(ctx context.Context, s Spec, onProgress func(Progress)) (*Result, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	_, tr, err := sweeprun.Record(ctx, s.Workload, s.Size, s.Scale)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{spec: s, tr: tr, prices: cost.DefaultPrices()}
	if !s.Scratch {
		ev.memo = make(map[string]Eval)
		ev.states = make(map[string]*evalState)
	}
	var res *Result
	switch s.Strategy {
	case "pareto":
		res, err = runPareto(ctx, ev, onProgress)
	case "grid":
		res, err = runGrid(ctx, ev, onProgress)
	default:
		res, err = runHalving(ctx, ev, onProgress)
	}
	if err != nil {
		return nil, err
	}
	lastFrontSize.Store(int64(len(res.Front)))
	return res, nil
}

// finishResult assembles front, peak and winner from the full-trace
// evaluations, ascending cost on the front, ties by candidate order,
// plus the evaluator's replay-cost accounting.
func finishResult(ev *evaluator, full []Eval) *Result {
	s := ev.spec
	r := &Result{
		Spec:          s,
		Evals:         ev.evals,
		Front:         computeFront(s.Metric, full),
		RefsSimulated: ev.refsSim,
		RefsScratch:   ev.refsScr,
		CacheHits:     ev.cacheHits,
	}
	best := func(eligible func(Eval) bool) *Eval {
		var b *Eval
		for i := range full {
			e := &full[i]
			if !eligible(*e) {
				continue
			}
			if b == nil || score(s.Metric, *e) > score(s.Metric, *b) {
				b = e
			}
		}
		if b == nil {
			return nil
		}
		c := *b
		return &c
	}
	r.Peak = best(func(Eval) bool { return true })
	r.Winner = best(func(e Eval) bool { return satisfies(e, s.Constraints) })
	return r
}

// computeFront maps full-trace evaluations onto cost.Front.
func computeFront(metric string, full []Eval) []Eval {
	pts := make([]cost.Point, len(full))
	for i, e := range full {
		pts[i] = cost.Point{Metric: score(metric, e), Cost: e.Cost}
	}
	idx := cost.Front(pts)
	front := make([]Eval, len(idx))
	for k, i := range idx {
		front[k] = full[i]
	}
	return front
}

// progressFor builds one generation snapshot over the cumulative
// full-trace evaluations, with the deepest rung's best.
func progressFor(s Spec, gen, evals, windows int, full []Eval, best *Eval) Progress {
	front := computeFront(s.Metric, full)
	lastFrontSize.Store(int64(len(front)))
	p := Progress{
		Strategy:   s.Strategy,
		Generation: gen,
		Evals:      evals,
		Budget:     s.Budget,
		Windows:    windows,
		FrontSize:  len(front),
		Front:      front,
	}
	if best != nil {
		b := *best
		p.Best = &b
	}
	return p
}

// bestOf returns a copy of the highest-scoring evaluation, ties to the
// earliest.
func bestOf(metric string, evals []Eval) *Eval {
	if len(evals) == 0 {
		return nil
	}
	b := 0
	for i := 1; i < len(evals); i++ {
		if score(metric, evals[i]) > score(metric, evals[b]) {
			b = i
		}
	}
	c := evals[b]
	return &c
}

// rankByScore returns eval indices ordered best-first, ties keeping
// candidate order (the stable sort is what makes halving's survivor
// selection deterministic).
func rankByScore(metric string, evals []Eval) []int {
	order := make([]int, len(evals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return score(metric, evals[order[a]]) > score(metric, evals[order[b]])
	})
	return order
}
