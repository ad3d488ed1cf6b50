package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"streamsim/internal/experiments"
	"streamsim/internal/search"
	"streamsim/internal/service"
	"streamsim/internal/service/api"
	"streamsim/internal/sweeprun"
	"streamsim/internal/workload"
)

// Shape of one simd session: two closed-loop clients, and a job list
// of 126 distinct fresh requests (at least 100 leave ten samples
// beyond their p90) plus exact resubmissions.
const (
	jobScale     = 0.03
	simdClients  = 2
	resubmitFrac = 0.25 // share of all jobs that are resubmissions
	simdUnitS    = 14   // nominal seconds of one session
)

// simdArtefacts are the paper's hit-rate artefacts, each submitted
// once per session.
var simdArtefacts = []string{"fig3", "table2", "fig5", "table3", "fig8", "fig9"}

// sweepParams and their admissible values; a fresh sweep varies one
// parameter over four of them.
var sweepParams = []string{"streams", "depth", "filter", "czone", "assoc", "victim", "latency"}

var sweepValues = map[string][]int{
	"streams": {1, 2, 3, 4, 5, 6, 8, 10, 12, 16},
	"depth":   {1, 2, 3, 4, 6, 8},
	"filter":  {0, 4, 8, 16, 32},
	"czone":   {10, 12, 14, 16, 18, 20, 22, 24},
	"assoc":   {1, 2, 4, 8},
	"victim":  {0, 1, 2, 4, 8, 16},
	"latency": {0, 5, 10, 20, 50, 100},
}

// optSpace is the space of the small fresh optimizations.
var optSpace = []search.Dim{
	{Param: "streams", Values: []int{2, 4, 6, 8, 10}},
	{Param: "filter", Values: []int{0, 16}},
	{Param: "czone", Values: []int{12, 16, 20}},
}

// plannedJob is one submission in a client's sequence. Fresh is the
// index of the request among the session's distinct requests; a
// resubmission repeats an earlier fresh request of the same client,
// which the closed loop guarantees has finished.
type plannedJob struct {
	Req      api.SubmitRequest `json:"req"`
	Fresh    int               `json:"fresh"`
	Resubmit bool              `json:"resubmit,omitempty"`
}

// jobKind classifies a request for the per-kind service figures.
func jobKind(r api.SubmitRequest) string {
	switch {
	case r.Sweep != nil:
		return "sweep"
	case r.Optimize != nil:
		return "optimize"
	default:
		return "experiment"
	}
}

// planJobs draws every client's job sequence from the seed. The shape
// is fixed, so every seed asks for the same amount of work: each of
// the fifteen small inputs is swept once over each parameter and
// optimized once, each artefact runs once, every request goes to a
// fixed client, and each client resubmits a third as many requests as
// it sends fresh. The seed draws each sweep's four values, each
// optimizer's seed, the order of each client's jobs, and which earlier
// request each resubmission repeats, and where.
func planJobs(seed int64) (fresh []api.SubmitRequest, clients [][]plannedJob) {
	rng := rand.New(rand.NewSource(seed))
	clients = make([][]plannedJob, simdClients)
	add := func(k int, r api.SubmitRequest) {
		clients[k] = append(clients[k], plannedJob{Req: r, Fresh: len(fresh)})
		fresh = append(fresh, r)
	}
	for i, name := range workload.Names() {
		for p, param := range sweepParams {
			vals := sweepValues[param]
			var pick []int
			for _, j := range rng.Perm(len(vals))[:4] {
				pick = append(pick, vals[j])
			}
			add((i+p)%simdClients, api.SubmitRequest{Sweep: &sweeprun.Spec{
				Workload: name, Param: param, Values: pick, Scale: jobScale,
			}})
		}
		add(i%simdClients, api.SubmitRequest{Optimize: &search.Spec{
			Workload: name, Scale: jobScale, Space: optSpace, Budget: 16, Seed: rng.Int63n(1<<31) + 1,
		}})
	}
	for i, id := range simdArtefacts {
		add(i%simdClients, api.SubmitRequest{Experiment: id, Scale: jobScale})
	}
	for k, seq := range clients {
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		resub := int(float64(len(seq))*resubmitFrac/(1-resubmitFrac) + 0.5)
		for r := 0; r < resub; r++ {
			pos := 1 + rng.Intn(len(seq))
			var earlier []plannedJob
			for _, pj := range seq[:pos] {
				if !pj.Resubmit {
					earlier = append(earlier, pj)
				}
			}
			src := earlier[rng.Intn(len(earlier))]
			src.Resubmit = true
			seq = append(seq[:pos], append([]plannedJob{src}, seq[pos:]...)...)
		}
		clients[k] = seq
	}
	return fresh, clients
}

// jobSample is what a client saw of one job.
type jobSample struct {
	plan    plannedJob
	latency float64 // seconds from submit to terminal status
	cached  bool    // the submit answer came from the job store
	status  api.JobStatus
	bytes   int // size of the terminal status document
	err     error
}

// simdServer is an in-process simd server on a loopback port.
type simdServer struct {
	svc    *service.Server
	hs     *http.Server
	served chan error
	client *api.Client
}

// startServer starts a server with default workers and a client
// limited to two connections.
func startServer() (*simdServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &simdServer{svc: service.New(service.Config{}), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = &api.Client{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{Transport: &http.Transport{MaxConnsPerHost: simdClients, MaxIdleConnsPerHost: simdClients}},
	}
	return s, nil
}

// stop drains the job pool and shuts the HTTP server down, waiting
// for both.
func (s *simdServer) stop() error {
	s.svc.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.HTTP.CloseIdleConnections()
	return err
}

// runSimd runs sessions of the planned job list against fresh servers.
// Set-up
// starts the server and fills the process-wide trace cache through the
// experiments layer (Table 1 at the job scale), as a long-running
// daemon would have it warm. Every session replays the same plan on a
// new job store, so each does the same work; the first session's
// distinct results are checked against direct in-process runs, later
// sessions against the first.
func runSimd(ctx context.Context, c runCfg) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	var srv *simdServer
	for len(rep.setupS) < minSetups {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		experiments.ResetTraceCache()
		sp := c.rec.start("setup", "setup", 0)
		d, err := timeIt(func() error {
			var err error
			if srv, err = startServer(); err != nil {
				return err
			}
			if err := srv.client.Health(ctx); err != nil {
				return err
			}
			ts := c.rec.start("experiments.table1", "setup", sp)
			defer c.rec.end(ts)
			_, err = experiments.Table1(ctx, experiments.Options{Scale: jobScale})
			return err
		})
		c.rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rep.setupS = append(rep.setupS, d)
	}

	fresh, plan := planJobs(c.seed)
	var first []jobSample
	var all []jobSample
	var refs, hits, evals, evalHits float64
	for u := 0; u < c.units(simdUnitS); u++ {
		if u > 0 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			var err error
			if srv, err = startServer(); err != nil {
				return nil, err
			}
		}
		refs0, hits0 := experiments.ReplayedRefs(), experiments.TraceCacheHits()
		evals0, evalHits0 := search.EvalsTotal(), search.EvalCacheHits()
		runSp := c.rec.start("run", "run", 0)
		c.prof.start()
		watch := startWatch()
		samples := runSession(ctx, srv.client, plan, c.rec, runSp, u)
		watch.record(rep)
		c.rec.end(runSp)
		c.prof.stop()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		refs += float64(experiments.ReplayedRefs() - refs0)
		hits += float64(experiments.TraceCacheHits() - hits0)
		evals += float64(search.EvalsTotal() - evals0)
		evalHits += float64(search.EvalCacheHits() - evalHits0)
		if first == nil {
			first = samples
		}
		all = append(all, samples...)
	}
	rep.peakRSSMB = peakRSSMB()
	if err := srv.stop(); err != nil {
		return nil, err
	}

	// Output checks, untimed: every distinct request of the first
	// session against a direct in-process run, every later answer
	// against the first session's.
	want := directTexts(ctx, fresh)
	ref := map[int]string{}
	for _, s := range first {
		if !s.plan.Resubmit {
			ref[s.plan.Fresh] = s.status.Text
		}
	}
	for i, s := range all {
		w := want[s.plan.Fresh]
		if i >= len(first) {
			w = directResult{text: ref[s.plan.Fresh]}
		}
		err := checkJob(s, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simd check: job %d (%s): %v\n", i, jobKind(s.plan.Req), err)
		}
		rep.count(err == nil)
	}

	units := float64(len(rep.runS))
	var freshMS, memoMS, queueMS, overMS, statusB []float64
	exec := map[string][]float64{}
	refused, failed, cached := 0, 0, 0
	for _, s := range all {
		if isRefusal(s.err) {
			refused++
		}
		if s.err != nil || s.status.State != api.StateDone {
			failed++
		}
		if s.cached {
			cached++
		}
		ms := 1000 * s.latency
		if s.plan.Resubmit {
			memoMS = append(memoMS, ms)
			continue
		}
		freshMS = append(freshMS, ms)
		st := s.status
		if st.Started != nil && st.Finished != nil {
			queueMS = append(queueMS, 1000*st.Started.Sub(st.Created).Seconds())
			k := jobKind(s.plan.Req)
			exec[k] = append(exec[k], 1000*st.Finished.Sub(*st.Started).Seconds())
			overMS = append(overMS, ms-1000*st.Finished.Sub(st.Created).Seconds())
		}
		statusB = append(statusB, float64(s.bytes))
	}
	rep.opMS = freshMS
	jobsPerS := make([]float64, len(rep.runS))
	for i, d := range rep.runS {
		jobsPerS[i] = float64(len(first)) / d
	}
	p := tail(freshMS)
	rep.rows = append(rep.rows,
		row{"jobs_per_s", median(jobsPerS), "1/s", len(jobsPerS)},
		row{"job_p" + strconv.FormatFloat(p.Level, 'g', -1, 64) + "_ms", p.Value, "ms", p.N},
		row{"memo_p50_ms", median(memoMS), "ms", len(memoMS)},
	)

	rep.layer["experiments.replayed_refs"] = refs / units
	rep.layer["experiments.trace_cache_hits"] = hits / units
	rep.layer["search.evals"] = evals / units
	rep.layer["search.memo_hits"] = evalHits / units
	rep.layer["service.memo_hit_pct"] = 100 * float64(cached) / float64(len(all))
	rep.layer["service.refused"] = float64(refused)
	rep.layer["service.failed"] = float64(failed)
	rep.layerRows = append(rep.layerRows,
		row{"service.queue_ms_p50", median(queueMS), "ms", len(queueMS)},
		row{"service.exec_ms_p50.sweep", median(exec["sweep"]), "ms", len(exec["sweep"])},
		row{"service.exec_ms_p50.optimize", median(exec["optimize"]), "ms", len(exec["optimize"])},
		row{"service.exec_ms_p50.experiment", median(exec["experiment"]), "ms", len(exec["experiment"])},
		row{"service.overhead_ms_p50", median(overMS), "ms", len(overMS)},
		row{"service.status_bytes_p50", median(statusB), "B", len(statusB)},
	)
	rep.probe = simdInputs()
	return rep, nil
}

// runSession runs every client's sequence concurrently, each client
// submitting its next job only once the previous one is terminal.
func runSession(ctx context.Context, cl *api.Client, plan [][]plannedJob, rec *recorder, parent, session int) []jobSample {
	out := make([][]jobSample, len(plan))
	var wg sync.WaitGroup
	for k, seq := range plan {
		wg.Add(1)
		go func(k int, seq []plannedJob) {
			defer wg.Done()
			for i, pj := range seq {
				op := fmt.Sprintf("s%d-c%d-j%d", session, k, i)
				out[k] = append(out[k], submitAndWait(ctx, cl, pj, rec, parent, op))
			}
		}(k, seq)
	}
	wg.Wait()
	var all []jobSample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// submitAndWait runs one job through the API client: Submit, then
// Wait for a terminal status.
func submitAndWait(ctx context.Context, cl *api.Client, pj plannedJob, rec *recorder, parent int, op string) jobSample {
	sp := rec.start("client.job."+jobKind(pj.Req), op, parent)
	s := jobSample{plan: pj}
	t0 := time.Now()
	st, err := cl.Submit(ctx, pj.Req)
	if err == nil {
		s.cached = st.Cached
		st, err = cl.Wait(ctx, st.ID)
	}
	s.latency = time.Since(t0).Seconds()
	rec.end(sp)
	s.status, s.err = st, err
	if b, jerr := json.Marshal(st); jerr == nil {
		s.bytes = len(b)
	}
	if err == nil && st.Started != nil && st.Finished != nil && !s.cached {
		rec.add("service.queue", op, sp, st.Created, *st.Started)
		rec.add("service.exec", op, sp, *st.Started, *st.Finished)
	}
	return s
}

// isRefusal reports whether a client error is the service's 503
// answer to a full queue (api.Client reports the response status in
// the error text).
func isRefusal(err error) bool {
	return err != nil && strings.Contains(err.Error(), "503 "+http.StatusText(http.StatusServiceUnavailable))
}

// directResult is a request's expected result text.
type directResult struct {
	text string
	err  error
}

// directTexts computes every request's result text in process, through
// the same entry points the service runs, on up to GOMAXPROCS
// goroutines.
func directTexts(ctx context.Context, reqs []api.SubmitRequest) []directResult {
	out := make([]directResult, len(reqs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < simdClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i].text, out[i].err = directText(ctx, reqs[i])
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

func directText(ctx context.Context, r api.SubmitRequest) (string, error) {
	switch jobKind(r) {
	case "sweep":
		t, _, err := sweeprun.Run(ctx, *r.Sweep)
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	case "optimize":
		res, err := search.Run(ctx, *r.Optimize)
		if err != nil {
			return "", err
		}
		return res.Table().Render(), nil
	default:
		e, err := experiments.Lookup(r.Experiment)
		if err != nil {
			return "", err
		}
		t, err := e.Run(ctx, experiments.Options{Scale: r.Scale})
		if err != nil {
			return "", err
		}
		return t.Render(), nil
	}
}

// checkJob is the simd workload's output check: the job ended done,
// without a refusal or client error, a resubmission was answered from
// the job store, and the result text equals the expected text.
func checkJob(s jobSample, want directResult) error {
	switch {
	case s.err != nil:
		return s.err
	case s.status.State != api.StateDone:
		return fmt.Errorf("state %s: %s", s.status.State, s.status.Error)
	case s.plan.Resubmit && !s.cached:
		return fmt.Errorf("resubmission not answered from the job store")
	case want.err != nil:
		return fmt.Errorf("direct run: %w", want.err)
	case s.status.Text != want.text:
		return fmt.Errorf("result text differs from the direct in-process run")
	}
	return nil
}

// simdInputs are the fifteen small inputs at the job scale.
func simdInputs() []probeInput {
	var in []probeInput
	for _, n := range workload.Names() {
		in = append(in, probeInput{name: n, size: workload.SizeSmall, scale: jobScale})
	}
	return in
}
