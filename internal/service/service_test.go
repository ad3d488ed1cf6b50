package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamsim/internal/core"
	"streamsim/internal/search"
	"streamsim/internal/service/api"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
)

// sweepSpec is a small valid sweep used across tests.
var sweepSpec = sweeprun.Spec{
	Workload: "mgrid",
	Param:    "streams",
	Values:   []int{1, 2},
}

// fakeTable is a tiny deterministic result for injected runners.
func fakeTable(title string) *tab.Table {
	t := &tab.Table{Title: title, Columns: []string{"k", "v"}}
	t.AddRow("answer", "42")
	return t
}

// newTestServer starts a service with an injected runner behind
// httptest and returns the API client for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	svc := New(cfg)
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(svc.Abort)
	return svc, &api.Client{Base: hs.URL, HTTP: hs.Client()}
}

// instantRunner returns a runner that records calls and finishes
// immediately.
func instantRunner(calls *atomic.Int64) func(context.Context, api.SubmitRequest) (*tab.Table, error) {
	return func(_ context.Context, req api.SubmitRequest) (*tab.Table, error) {
		calls.Add(1)
		return fakeTable("run of " + req.Experiment), nil
	}
}

func TestSubmitStatusResult(t *testing.T) {
	var calls atomic.Int64
	_, cl := newTestServer(t, Config{Workers: 2, RunJob: instantRunner(&calls)})
	ctx := context.Background()

	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Key == "" {
		t.Fatalf("submit response missing id/key: %+v", st)
	}
	if st.Request.Scale != 1.0 {
		t.Errorf("request not normalized: scale = %g, want 1", st.Request.Scale)
	}
	st, err = cl.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("state = %s, want done (error %q)", st.State, st.Error)
	}
	want := fakeTable("run of table1")
	if st.Text != want.Render() || st.CSV != want.CSV() {
		t.Errorf("result text/CSV do not match the runner's table")
	}
	if st.Started == nil || st.Finished == nil {
		t.Errorf("timestamps missing: %+v", st)
	}
	got, err := cl.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text != st.Text || got.State != api.StateDone {
		t.Errorf("Get disagrees with Wait")
	}
	if calls.Load() != 1 {
		t.Errorf("runner ran %d times, want 1", calls.Load())
	}
}

func TestSubmitValidation(t *testing.T) {
	var calls atomic.Int64
	_, cl := newTestServer(t, Config{Workers: 1, RunJob: instantRunner(&calls)})
	ctx := context.Background()
	bad := []api.SubmitRequest{
		{},                                         // neither
		{Experiment: "nosuch"},                     // unknown experiment
		{Experiment: "table1", Scale: -0.5},        // bad scale
		{Experiment: "table1", Scale: 2},           // bad scale
		{Sweep: &sweepSpec, Experiment: "fig3"},    // both
		{Sweep: &sweeprun.Spec{Workload: "mgrid"}}, // sweep missing param/values
	}
	for i, req := range bad {
		if _, err := cl.Submit(ctx, req); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, req)
		} else if !strings.Contains(err.Error(), "400") {
			t.Errorf("bad request %d: error %v, want 400", i, err)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("runner ran for invalid requests")
	}
}

// TestSubmitRejectsHostileSizes: a spec whose values would size
// hardware past core.MaxCount, name hardware core.New cannot build, or
// list more than core.MaxCount sweep points gets a 400 on both POST
// endpoints and creates no job. Admitted, a depth of 1e9 asks
// stream.NewSet for 16 GB of FIFO entries per stream, and that
// out-of-memory failure is fatal to the whole daemon, every other job
// included; an unbuildable value would only become a failed job. The
// injected runner keeps any spec that slipped through from simulating
// anything.
func TestSubmitRejectsHostileSizes(t *testing.T) {
	var calls atomic.Int64
	svc, cl := newTestServer(t, Config{Workers: 1, RunJob: instantRunner(&calls)})
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(hs.Close)
	ctx := context.Background()
	sweep := func(param string, v int) api.SubmitRequest {
		return api.SubmitRequest{Sweep: &sweeprun.Spec{Workload: "mgrid", Param: param, Values: []int{2, v}}}
	}
	manyLatencies := make([]int, core.MaxCount+1)
	for i := range manyLatencies {
		manyLatencies[i] = i
	}
	space := search.Spec{Workload: "mgrid", Space: []search.Dim{
		{Param: "streams", Values: []int{2, 4}},
		{Param: "depth", Values: []int{2, 1e9}},
	}}
	for _, tc := range []struct {
		name string
		req  api.SubmitRequest
	}{
		{"sweep depth=1e9", sweep("depth", 1e9)},
		{"sweep streams=2e9", sweep("streams", 2e9)},
		{"sweep victim=1e9", sweep("victim", 1e9)},
		{"sweep filter=1e9", sweep("filter", 1e9)},
		{"sweep depth=0", sweep("depth", 0)},
		{"sweep assoc=3", sweep("assoc", 3)},
		{"sweep czone=63", sweep("czone", 63)},
		{"sweep assoc=1048576", sweep("assoc", 1048576)},
		{"sweep of 1025 latencies", api.SubmitRequest{Sweep: &sweeprun.Spec{Workload: "mgrid", Param: "latency", Values: manyLatencies}}},
		{"optimize depth=1e9", api.SubmitRequest{Optimize: &space}},
	} {
		if _, err := cl.Submit(ctx, tc.req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: submit error %v, want 400", tc.name, err)
		}
	}
	if resp := postOptimize(t, hs, space); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("optimize depth=1e9 on %s: status %d, want 400", api.OptimizePath, resp.StatusCode)
	}
	resp, err := cl.HTTP.Get(cl.Base + api.JobsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 || calls.Load() != 0 {
		t.Errorf("hostile specs created %d jobs and ran %d, want none", len(list), calls.Load())
	}
}

// TestValidateRequestScale: an experiment's scale must lie in (0, 1];
// NaN and the infinities fail every comparison and must not slip
// through. (normalize turns an omitted scale into 1 before this check.)
func TestValidateRequestScale(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Nextafter(1, 2)} {
		if err := validateRequest(api.SubmitRequest{Experiment: "table1", Scale: scale}); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
	if err := validateRequest(api.SubmitRequest{Experiment: "table1", Scale: 1}); err != nil {
		t.Errorf("scale 1 rejected: %v", err)
	}
}

func TestUnknownJob(t *testing.T) {
	_, cl := newTestServer(t, Config{Workers: 1, RunJob: instantRunner(new(atomic.Int64))})
	if _, err := cl.Get(context.Background(), "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job: err = %v, want 404", err)
	}
}

func TestMemoization(t *testing.T) {
	var calls atomic.Int64
	_, cl := newTestServer(t, Config{Workers: 2, RunJob: instantRunner(&calls)})
	ctx := context.Background()

	st1, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1", Scale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st1.ID); err != nil {
		t.Fatal(err)
	}
	// Scale omitted normalizes to 1.0: same canonical key, memo hit.
	st2, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.ID != st1.ID || st2.State != api.StateDone {
		t.Errorf("resubmission not served from memo store: %+v", st2)
	}
	if st2.Text == "" {
		t.Errorf("memoized response missing result")
	}
	// A different scale is a different key and a fresh job.
	st3, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1", Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Cached || st3.ID == st1.ID {
		t.Errorf("different options wrongly memoized: %+v", st3)
	}
	if _, err := cl.Wait(ctx, st3.ID); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("runner ran %d times, want 2", calls.Load())
	}
}

// TestSweepParallelFieldIgnored: sweeps no longer take a parallel
// width, so a request that still carries "parallel" is accepted as
// the same sweep: it keys to the same job as the request without it.
func TestSweepParallelFieldIgnored(t *testing.T) {
	var calls atomic.Int64
	_, cl := newTestServer(t, Config{Workers: 1, RunJob: instantRunner(&calls)})
	ctx := context.Background()
	body := `{"sweep": {"workload": "mgrid", "param": "streams", "values": [1, 2], "parallel": 4}}`
	resp, err := cl.HTTP.Post(cl.Base+api.JobsPath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 || st.ID == "" {
		t.Fatalf("a sweep carrying parallel got %s: %+v", resp.Status, st)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	plain, err := cl.Submit(ctx, api.SubmitRequest{Sweep: &sweepSpec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Key != st.Key || plain.ID != st.ID || !plain.Cached {
		t.Errorf("the sweep without parallel keyed to job %s (key %s), with it to %s (key %s)", plain.ID, plain.Key, st.ID, st.Key)
	}
	if calls.Load() != 1 {
		t.Errorf("runner ran %d times, want 1", calls.Load())
	}
}

func TestResubmitAfterFailureRetries(t *testing.T) {
	var calls atomic.Int64
	runner := func(context.Context, api.SubmitRequest) (*tab.Table, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient failure")
		}
		return fakeTable("ok"), nil
	}
	_, cl := newTestServer(t, Config{Workers: 1, RunJob: runner})
	ctx := context.Background()

	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateFailed || !strings.Contains(st.Error, "transient") {
		t.Fatalf("first run: state %s error %q", st.State, st.Error)
	}
	st2, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached || st2.ID == st.ID {
		t.Fatalf("failed job wrongly memoized: %+v", st2)
	}
	if st2, err = cl.Wait(ctx, st2.ID); err != nil {
		t.Fatal(err)
	}
	if st2.State != api.StateDone {
		t.Errorf("retry: state %s, want done", st2.State)
	}
}

// blockingRunner blocks until release is closed (or ctx is done),
// signalling entry on started.
func blockingRunner(started chan<- string, release <-chan struct{}) func(context.Context, api.SubmitRequest) (*tab.Table, error) {
	return func(ctx context.Context, req api.SubmitRequest) (*tab.Table, error) {
		select {
		case started <- req.Experiment:
		default:
		}
		select {
		case <-release:
			return fakeTable("released " + req.Experiment), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, cl := newTestServer(t, Config{Workers: 1, RunJob: blockingRunner(started, release)})
	ctx := context.Background()

	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if st, err = cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCancelled {
		t.Errorf("state = %s, want cancelled", st.State)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	_, cl := newTestServer(t, Config{Workers: 1, Backlog: 8, RunJob: blockingRunner(started, release)})
	ctx := context.Background()

	// First job occupies the only worker; the second stays queued.
	if _, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "fig3"})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateQueued {
		t.Fatalf("second job state = %s, want queued", st.State)
	}
	if st, err = cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCancelled {
		t.Errorf("cancelled queued job state = %s", st.State)
	}
}

func TestPoolSaturation(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	// No deferred close: Abort (test cleanup) unblocks the runner on
	// any early exit, and the test closes release itself below.
	_, cl := newTestServer(t, Config{Workers: 1, Backlog: 1, RunJob: blockingRunner(started, release)})
	ctx := context.Background()

	// Worker busy + backlog of one full = the third submission bounces.
	if _, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "fig3"}); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "fig5"})
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("saturated pool: err = %v, want 503", err)
	}
	// The bounced request must be retryable once capacity frees up.
	close(release)
	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "fig5"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Errorf("retried job state = %s, want done", st.State)
	}
}

func TestGracefulDrain(t *testing.T) {
	var calls atomic.Int64
	slow := func(_ context.Context, req api.SubmitRequest) (*tab.Table, error) {
		time.Sleep(20 * time.Millisecond)
		calls.Add(1)
		return fakeTable(req.Experiment), nil
	}
	svc, cl := newTestServer(t, Config{Workers: 2, Backlog: 16, RunJob: slow})
	ctx := context.Background()

	ids := []string{}
	for _, id := range []string{"table1", "fig3", "fig5", "table2"} {
		st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: id})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	svc.Drain() // must wait for all four, not abandon queued ones

	for _, id := range ids {
		st, err := cl.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateDone {
			t.Errorf("after drain, job %s state = %s, want done", id, st.State)
		}
	}
	if calls.Load() != 4 {
		t.Errorf("runner ran %d jobs, want 4", calls.Load())
	}
	// Draining servers refuse new work and report unhealthy.
	if _, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table3"}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("submit while draining: err = %v, want 503", err)
	}
	if err := cl.Health(ctx); err == nil {
		t.Errorf("healthz should fail while draining")
	}
}

func TestStreamNDJSON(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	svc := New(Config{Workers: 1, RunJob: blockingRunner(started, release)})
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	defer svc.Abort()
	cl := &api.Client{Base: hs.URL, HTTP: hs.Client()}
	ctx := context.Background()

	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	resp, err := hs.Client().Get(hs.URL + api.JobsPath + "/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var states []api.JobState
	readLine := func() api.JobStatus {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early (err %v) after states %v", sc.Err(), states)
		}
		var line api.JobStatus
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		states = append(states, line.State)
		return line
	}
	if first := readLine(); first.State != api.StateRunning {
		t.Fatalf("first stream line state = %s, want running", first.State)
	}
	close(release)
	for {
		line := readLine()
		if line.State.Terminal() {
			if line.State != api.StateDone {
				t.Fatalf("terminal state = %s, want done", line.State)
			}
			if line.Text == "" {
				t.Errorf("terminal stream line missing result text")
			}
			break
		}
	}
	if sc.Scan() {
		t.Errorf("stream kept going after terminal line: %q", sc.Text())
	}
}

func TestListJobs(t *testing.T) {
	var calls atomic.Int64
	_, cl := newTestServer(t, Config{Workers: 2, RunJob: instantRunner(&calls)})
	ctx := context.Background()
	for _, id := range []string{"table1", "fig3"} {
		st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: id})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := cl.HTTP.Get(cl.Base + api.JobsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].Request.Experiment != "table1" || list[1].Request.Experiment != "fig3" {
		t.Errorf("list = %+v, want table1 then fig3", list)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	var calls atomic.Int64
	_, cl := newTestServer(t, Config{Workers: 1, RunJob: instantRunner(&calls)})
	ctx := context.Background()
	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"}); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.HTTP.Get(cl.Base + api.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"jobs_queued", "jobs_running", "jobs_done", "jobs_failed", "jobs_cancelled",
		"memo_hits", "workers", "trace_cache_hits", "trace_cache_bytes",
		"trace_cache_entries", "trace_cache_evictions_total", "results_memo_hits",
		"results_memo_entries", "front_memo_hits", "front_memo_bytes", "refs_replayed_total",
		"refs_per_sec", "replay_fanout_width", "uptime_seconds",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	var done, memo int
	if err := json.Unmarshal(m["jobs_done"], &done); err != nil || done != 1 {
		t.Errorf("jobs_done = %s, want 1", m["jobs_done"])
	}
	if err := json.Unmarshal(m["memo_hits"], &memo); err != nil || memo != 1 {
		t.Errorf("memo_hits = %s, want 1", m["memo_hits"])
	}
}

func TestConcurrentSubmitSameKey(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 64)
	release := make(chan struct{})
	runner := func(ctx context.Context, req api.SubmitRequest) (*tab.Table, error) {
		calls.Add(1)
		return blockingRunner(started, release)(ctx, req)
	}
	_, cl := newTestServer(t, Config{Workers: 4, Backlog: 64, RunJob: runner})
	ctx := context.Background()

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: "table1"})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(release)
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		if id != ids[0] {
			t.Fatalf("concurrent identical submissions got different jobs: %v", ids)
		}
	}
	st, err := cl.Wait(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Errorf("state = %s, want done", st.State)
	}
	if calls.Load() != 1 {
		t.Errorf("runner ran %d times for one key, want 1", calls.Load())
	}
}

func TestCanonicalKeyNormalization(t *testing.T) {
	k1, err := canonicalKey(api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := canonicalKey(api.SubmitRequest{Experiment: "table1", Scale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("omitted and explicit default scale hash differently")
	}
	k3, err := canonicalKey(api.SubmitRequest{Experiment: "table1", Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Errorf("different scales hash identically")
	}
	sweepA := api.SubmitRequest{Sweep: &sweepSpec}
	filled := sweepSpec.WithDefaults()
	sweepB := api.SubmitRequest{Sweep: &filled}
	kA, _ := canonicalKey(sweepA)
	kB, _ := canonicalKey(sweepB)
	if kA != kB {
		t.Errorf("sweep with and without explicit defaults hash differently")
	}
	if kA == k1 {
		t.Errorf("sweep and experiment requests collide")
	}
}
