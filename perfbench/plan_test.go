package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"streamsim/internal/service/api"
	"streamsim/internal/workload"
)

func planJSON(t *testing.T, seed int64) string {
	t.Helper()
	fresh, clients := planJobs(seed)
	b, err := json.Marshal(struct {
		Fresh   any
		Clients any
	}{fresh, clients})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPlanIsDrawnFromTheSeed(t *testing.T) {
	if planJSON(t, 7) != planJSON(t, 7) {
		t.Error("seed 7 produced two different request lists")
	}
	if planJSON(t, 7) == planJSON(t, 8) {
		t.Error("seeds 7 and 8 produced the same request list")
	}
	a, b := exploreSpecs(7), exploreSpecs(8)
	for i := range a {
		if a[i].Seed != 7+int64(i) || b[i].Seed != 8+int64(i) {
			t.Errorf("explore run %d seeds %d and %d, want seed + %d", i, a[i].Seed, b[i].Seed, i)
		}
	}
}

func TestPlanShape(t *testing.T) {
	fresh, clients := planJobs(1)
	keys := map[string]bool{}
	kinds := map[string]int{}
	for _, r := range fresh {
		b, _ := json.Marshal(r)
		if keys[string(b)] {
			t.Errorf("fresh request %s drawn twice", b)
		}
		keys[string(b)] = true
		kinds[jobKind(r)]++
	}
	inputs := len(workload.Names())
	if kinds["sweep"] != inputs*len(sweepParams) || kinds["optimize"] != inputs || kinds["experiment"] != len(simdArtefacts) {
		t.Errorf("fresh kinds %v", kinds)
	}
	if len(fresh) < 100 {
		t.Errorf("%d fresh jobs leave fewer than ten beyond the p90", len(fresh))
	}
	total, resub := 0, 0
	for k, seq := range clients {
		seen := map[int]bool{}
		for i, pj := range seq {
			total++
			if !pj.Resubmit {
				seen[pj.Fresh] = true
				continue
			}
			resub++
			if !seen[pj.Fresh] {
				t.Errorf("client %d job %d resubmits request %d before the client ran it", k, i, pj.Fresh)
			}
		}
	}
	if share := float64(resub) / float64(total); share < 0.24 || share > 0.26 {
		t.Errorf("resubmission share %.3f, want 0.25", share)
	}
	if shape(clients) != shape(second(planJobs(2))) {
		t.Error("seeds 1 and 2 give the clients different work")
	}
}

func second(_ []api.SubmitRequest, clients [][]plannedJob) [][]plannedJob { return clients }

// shape is what each client runs, ignoring order, values and seeds.
func shape(clients [][]plannedJob) string {
	var out []string
	for k, seq := range clients {
		var jobs []string
		for _, pj := range seq {
			r := pj.Req
			switch {
			case pj.Resubmit:
				jobs = append(jobs, "resubmit")
			case r.Sweep != nil:
				jobs = append(jobs, r.Sweep.Workload+"/"+r.Sweep.Param)
			case r.Optimize != nil:
				jobs = append(jobs, "optimize/"+r.Optimize.Workload)
			default:
				jobs = append(jobs, r.Experiment)
			}
		}
		sort.Strings(jobs)
		out = append(out, fmt.Sprint(k, jobs))
	}
	return strings.Join(out, "\n")
}

// TestMetricListsMatchBenchmarkJSON keeps the names and units the
// binary prints in step with the benchmark's declaration.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], binary %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(decl.PerLayer), len(perLayer))
	}
	for i, m := range decl.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], binary %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
