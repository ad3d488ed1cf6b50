package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"streamsim/internal/experiments"
	"streamsim/internal/search"
	"streamsim/internal/service/api"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
)

// tally runs a check over a good and a corrupted output and returns
// the report's counts, as each workload counts its operations.
func tally(good, bad error) (attempted, failed int) {
	rep := &report{}
	rep.count(good == nil)
	rep.count(bad == nil)
	return rep.attempted, rep.failed
}

func copyTable(t *tab.Table) *tab.Table {
	c := *t
	c.Rows = make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		c.Rows[i] = append([]string(nil), r...)
	}
	return &c
}

func TestPaperCheckCountsCorruptedTables(t *testing.T) {
	ctx := context.Background()
	for _, id := range []string{"fig8", "table2"} {
		e, err := experiments.Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		good, err := e.Run(ctx, experiments.Options{Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		published := -1
		for i, c := range good.Columns {
			if strings.HasPrefix(c, "paper") {
				published = i
				break
			}
		}
		if published < 0 {
			t.Fatalf("%s has no published-value column", id)
		}
		badCell := copyTable(good)
		badCell.Rows[3][published] = "n/a"
		shortTable := copyTable(good)
		shortTable.Rows = shortTable.Rows[1:]
		for name, bad := range map[string]*tab.Table{"unparsable published cell": badCell, "missing row": shortTable, "no table": nil} {
			if a, f := tally(checkPaperTable(id, good), checkPaperTable(id, bad)); a != 2 || f != 1 {
				t.Errorf("%s, %s: attempted %d failed %d, want 2 and 1", id, name, a, f)
			}
		}
	}
}

func TestPaperErrorsReadPublishedColumns(t *testing.T) {
	fig5 := &tab.Table{
		Columns: []string{"benchmark", "hit w/o", "hit w/", "EB w/o", "EB w/", "paper hit w/o->w/", "paper EB w/o->w/"},
		Rows: [][]string{
			{"a", "30.0", "40.0", "100.0", "10.0", "26->37", "158->37"},
			{"b", "50.0", "50.0", "20.0", "5.0", "-", "-"},
		},
	}
	table4 := &tab.Table{
		Columns: []string{"benchmark", "input", "stream hit %", "paper hit %", "min L2 for same hit rate", "paper L2"},
		Rows:    [][]string{{"c", "12^3", "45.0", "43.0", "64 KB", "> 4 MB"}},
	}
	hit, eb := paperErrors(map[string]*tab.Table{"fig5": fig5, "table4": table4})
	if want := []float64{4, 3, 2}; !equal(hit, want) {
		t.Errorf("hit errors %v, want %v", hit, want)
	}
	if want := []float64{58, 27}; !equal(eb, want) {
		t.Errorf("EB errors %v, want %v", eb, want)
	}
	if err := checkPaperTable("table4", table4); err == nil {
		t.Error("a one-row Table 4 passed the row-count check")
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExploreCheckCountsCorruptedWinners(t *testing.T) {
	ctx := context.Background()
	s := search.Spec{
		Workload: "mgrid", Scale: 0.05, Strategy: "halving", Budget: 12, Seed: 3,
		Space: []search.Dim{{Param: "assoc", Values: []int{1, 4}}, {Param: "streams", Values: []int{2, 4, 8}}},
	}
	res, err := search.Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := sweeprun.Record(ctx, s.Workload, "small", s.Scale)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(w *search.Eval)) *search.Result {
		c := *res
		w := *res.Winner
		w.Values = append([]int(nil), w.Values...)
		f(&w)
		c.Winner = &w
		return &c
	}
	bad := map[string]*search.Result{
		"hit rate":  corrupt(func(w *search.Eval) { w.Hit += 0.001 }),
		"values":    corrupt(func(w *search.Eval) { w.Values[1] = 1 + w.Values[1]%8 }),
		"no winner": {Spec: res.Spec},
	}
	for name, b := range bad {
		if a, f := tally(checkWinner(ctx, s, res, st), checkWinner(ctx, s, b, st)); a != 2 || f != 1 {
			t.Errorf("corrupted %s: attempted %d failed %d, want 2 and 1", name, a, f)
		}
	}
}

func TestSimdCheckCountsCorruptedJobs(t *testing.T) {
	req := api.SubmitRequest{Experiment: "fig3", Scale: jobScale}
	done := func(text string) jobSample {
		return jobSample{plan: plannedJob{Req: req}, status: api.JobStatus{State: api.StateDone, Text: text}}
	}
	want := directResult{text: "table\n"}
	resub := done("table\n")
	resub.plan.Resubmit = true
	uncached := resub
	resub.cached = true
	failedJob := done("")
	failedJob.status.State = api.StateFailed
	refused := jobSample{plan: plannedJob{Req: req}, err: errors.New("api: 503 Service Unavailable: worker queue full")}
	bad := map[string]jobSample{
		"different text":       done("other\n"),
		"failed state":         failedJob,
		"refused":              refused,
		"resubmission ran":     uncached,
		"direct run failed":    done("table\n"),
		"cached but different": func() jobSample { s := resub; s.status.Text = "x"; return s }(),
	}
	for name, b := range bad {
		w := want
		if name == "direct run failed" {
			w = directResult{err: errors.New("boom")}
		}
		if a, f := tally(checkJob(done("table\n"), want), checkJob(b, w)); a != 2 || f != 1 {
			t.Errorf("%s: attempted %d failed %d, want 2 and 1", name, a, f)
		}
	}
	if checkJob(resub, want) != nil {
		t.Error("a memoized resubmission with the right text failed its check")
	}
	if !isRefusal(refused.err) || isRefusal(errors.New("api: 400 Bad Request")) {
		t.Error("isRefusal does not single out 503 answers")
	}
}
