// Package service is the simulation-as-a-service subsystem behind
// cmd/simd: an HTTP JSON API that accepts experiment and sweep jobs,
// runs them on a bounded worker pool, memoizes results by canonical
// request hash, streams job progress as NDJSON and exposes
// expvar-backed metrics. The simulation itself is untouched — jobs
// execute the same experiments.Run / sweeprun.Run entry points as the
// CLI, under a cancellable context.
package service

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"streamsim/internal/core"
	"streamsim/internal/experiments"
	"streamsim/internal/search"
	"streamsim/internal/service/api"
	"streamsim/internal/sweeprun"
	"streamsim/internal/tab"
)

// Config sizes and wires a Server.
type Config struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS(0).
	Workers int
	// Backlog is the queue depth beyond running jobs; 0 means 256.
	Backlog int
	// RunJob executes one normalized request; nil means the in-process
	// harness (experiments / sweeprun). Tests inject slow or failing
	// runners here.
	RunJob func(ctx context.Context, req api.SubmitRequest) (*tab.Table, error)
	// RunOptimize executes one optimizer job, reporting each generation
	// through onProgress; nil means search.RunProgress. Tests inject
	// controllable optimizers here.
	RunOptimize func(ctx context.Context, s search.Spec, onProgress func(search.Progress)) (*search.Result, error)
}

// Server owns the job store, the worker pool and the HTTP handlers.
type Server struct {
	cfg      Config
	store    *store
	pool     *pool
	mux      *http.ServeMux
	metrics  *expvar.Map
	base     context.Context // parent of every job context
	abortAll context.CancelFunc
	start    time.Time
	draining atomic.Bool
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Backlog <= 0 {
		cfg.Backlog = 256
	}
	if cfg.RunJob == nil {
		cfg.RunJob = runRequest
	}
	if cfg.RunOptimize == nil {
		cfg.RunOptimize = search.RunProgress
	}
	s := &Server{
		cfg:   cfg,
		store: newStore(),
		mux:   http.NewServeMux(),
		start: now(),
	}
	s.base, s.abortAll = context.WithCancel(context.Background())
	s.pool = newPool(cfg.Workers, cfg.Backlog, s.runJob)
	s.initMetrics()
	s.routes()
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting jobs and waits for queued and running ones to
// finish — the graceful half of SIGTERM shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.pool.drain()
}

// Abort cancels every job context and then drains, for when the
// graceful window has expired.
func (s *Server) Abort() {
	s.draining.Store(true)
	s.abortAll()
	s.pool.drain()
}

func (s *Server) routes() {
	s.mux.HandleFunc("POST "+api.JobsPath, s.handleSubmit)
	s.mux.HandleFunc("GET "+api.JobsPath, s.handleList)
	s.mux.HandleFunc("GET "+api.JobsPath+"/{id}", s.handleGet)
	s.mux.HandleFunc("GET "+api.JobsPath+"/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE "+api.JobsPath+"/{id}", s.handleCancel)
	s.mux.HandleFunc("POST "+api.OptimizePath, s.handleOptimize)
	s.mux.HandleFunc("GET "+api.HealthPath, s.handleHealth)
	s.mux.HandleFunc("GET "+api.MetricsPath, s.handleMetrics)
}

// initMetrics builds an unregistered expvar.Map (so multiple servers
// can coexist in one process, e.g. under httptest) whose members read
// live store and harness counters.
func (s *Server) initMetrics() {
	m := new(expvar.Map).Init()
	gauge := func(name string, f func() any) { m.Set(name, expvar.Func(f)) }
	gauge("jobs_queued", func() any { q, _, _, _, _, _ := s.store.stats(); return q })
	gauge("jobs_running", func() any { _, r, _, _, _, _ := s.store.stats(); return r })
	gauge("jobs_done", func() any { _, _, d, _, _, _ := s.store.stats(); return d })
	gauge("jobs_failed", func() any { _, _, _, f, _, _ := s.store.stats(); return f })
	gauge("jobs_cancelled", func() any { _, _, _, _, c, _ := s.store.stats(); return c })
	gauge("memo_hits", func() any { _, _, _, _, _, h := s.store.stats(); return h })
	gauge("workers", func() any { return s.cfg.Workers })
	gauge("trace_cache_hits", func() any { return sweeprun.TraceCacheStats().Hits })
	gauge("trace_cache_bytes", func() any { return sweeprun.TraceCacheStats().Bytes })
	gauge("trace_cache_entries", func() any { return sweeprun.TraceCacheStats().Entries })
	gauge("trace_cache_evictions_total", func() any { return sweeprun.TraceCacheStats().Evictions })
	gauge("results_memo_hits", func() any { return sweeprun.TraceCacheStats().MemoHits })
	gauge("results_memo_entries", func() any { return sweeprun.TraceCacheStats().MemoEntries })
	gauge("front_memo_hits", func() any { return sweeprun.TraceCacheStats().FrontHits })
	gauge("front_memo_bytes", func() any { return sweeprun.TraceCacheStats().FrontBytes })
	gauge("refs_replayed_total", func() any { return experiments.ReplayedRefs() })
	gauge("replay_fanout_width", func() any { return core.LastFanOutWidth() })
	gauge("search_evals_total", func() any { return search.EvalsTotal() })
	gauge("search_eval_cache_hits_total", func() any { return search.EvalCacheHits() })
	gauge("search_front_size", func() any { return search.LastFrontSize() })
	gauge("refs_per_sec", func() any {
		up := now().Sub(s.start).Seconds()
		if up <= 0 {
			return 0.0
		}
		return float64(experiments.ReplayedRefs()) / up
	})
	gauge("uptime_seconds", func() any { return now().Sub(s.start).Seconds() })
	s.metrics = m
}

// runJob is the worker-pool callback for one dequeued job.
func (s *Server) runJob(j *job) {
	if j.ctx.Err() != nil {
		s.store.markCancelled(j)
		return
	}
	if !s.store.markRunning(j) {
		return // cancelled while queued
	}
	if opt := j.status.Request.Optimize; opt != nil {
		res, err := s.cfg.RunOptimize(j.ctx, *opt, func(p search.Progress) {
			s.store.setProgress(j, &p)
		})
		var t *tab.Table
		if err == nil {
			t = res.Table()
		}
		terminalFor(s, j, t, err)
		return
	}
	t, err := s.cfg.RunJob(j.ctx, j.status.Request)
	terminalFor(s, j, t, err)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// Encode errors here mean the client went away mid-response; the
	// status header is already written, so there is nothing to report.
	_ = enc.Encode(v)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// bodyTimeout is how long a client may take to send a POST body once
// its headers are in. It is a fixed bound, held in a variable only so
// tests can shorten it.
var bodyTimeout = 30 * time.Second

// decodeBody decodes one JSON value from a request body of at most
// 1 MiB that must arrive within bodyTimeout. The read deadline is set
// on the connection here rather than as the daemon's
// http.Server.ReadTimeout, so the bound holds wherever the handler is
// served, and it covers the decode only: a decoded body clears it, so
// a response that streams for longer is not bounded by it. A failed
// decode leaves it armed, because before answering net/http drains
// what is left of the body, and a stalled client must not hold that
// read open. Writers that are not a connection (test recorders) cannot
// take a deadline, and their bodies are already in memory.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	rc := http.NewResponseController(w)
	armed := rc.SetReadDeadline(time.Now().Add(bodyTimeout)) == nil
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(v); err != nil {
		return err
	}
	if armed {
		return rc.SetReadDeadline(time.Time{})
	}
	return nil
}

// handleSubmit accepts a job, answering from the memo store when the
// canonical key is already known.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	var req api.SubmitRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req = normalize(req)
	if err := validateRequest(req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := canonicalKey(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ctx, cancel := context.WithCancel(s.base)
	j, fresh := s.store.submit(req, key, ctx, cancel)
	if !fresh {
		cancel() // the new context is unused; the existing job keeps its own
		st, _ := s.store.snapshot(j)
		st.Cached = true
		writeJSON(w, http.StatusOK, st)
		return
	}
	if !s.pool.submit(j) {
		s.store.markFailed(j, fmt.Errorf("worker queue full"))
		writeError(w, http.StatusServiceUnavailable, "worker queue full (backlog %d)", s.cfg.Backlog)
		return
	}
	st, _ := s.store.snapshot(j)
	writeJSON(w, http.StatusAccepted, st)
}

// handleList returns every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.store.list())
}

// jobFor resolves the {id} path value, answering 404 itself.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j, ok
}

// handleGet returns one job's status.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	st, _ := s.store.snapshot(j)
	writeJSON(w, http.StatusOK, st)
}

// handleCancel cancels a queued or running job. Cancelling a terminal
// job is a no-op that returns its final status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	j.cancel()
	st, _ := s.store.snapshot(j)
	if st.State == api.StateQueued {
		// A worker may never pick it up (or will skip it); settle now.
		s.store.markCancelled(j)
		st, _ = s.store.snapshot(j)
	}
	writeJSON(w, http.StatusOK, st)
}

// streamHeartbeat paces keepalive lines on an idle stream.
const streamHeartbeat = time.Second

// handleStream writes the job's status as NDJSON lines — one per
// state transition plus heartbeats — until the job is terminal or the
// client goes away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(w, r)
	if !ok {
		return
	}
	s.streamJob(w, r, j)
}

// streamJob is the shared NDJSON push loop behind /stream and
// /v1/optimize: one status line per store mutation (state transitions
// and optimizer progress) plus heartbeats, until the job is terminal
// or the client goes away.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	hb := time.NewTimer(streamHeartbeat)
	defer hb.Stop()
	for {
		st, v := s.store.snapshot(j)
		if err := enc.Encode(st); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		if st.State.Terminal() {
			return
		}
		ch := s.store.watch(j, v)
		if ch == nil {
			continue // already moved on; emit the newer snapshot
		}
		if !hb.Stop() {
			select {
			case <-hb.C:
			default:
			}
		}
		hb.Reset(streamHeartbeat)
		select {
		case <-ch:
		case <-hb.C:
		case <-r.Context().Done():
			return
		}
	}
}

// handleOptimize accepts a search.Spec, submits it as an optimizer
// job — same store, memoization, worker pool and backpressure as
// /v1/jobs — and streams the job's status on the same response: one
// NDJSON line per generation, each carrying a front at least as good
// as the last, ending with the terminal status. Cancellation goes
// through DELETE /v1/jobs/{id} (the first line carries the ID) and
// lands mid-generation via the job context.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	var spec search.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	req := normalize(api.SubmitRequest{Optimize: &spec})
	if err := validateRequest(req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := canonicalKey(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	ctx, cancel := context.WithCancel(s.base)
	j, fresh := s.store.submit(req, key, ctx, cancel)
	if !fresh {
		cancel() // the new context is unused; the existing job keeps its own
	} else if !s.pool.submit(j) {
		s.store.markFailed(j, fmt.Errorf("worker queue full"))
		writeError(w, http.StatusServiceUnavailable, "worker queue full (backlog %d)", s.cfg.Backlog)
		return
	}
	s.streamJob(w, r, j)
}

// handleHealth answers 200 while the service accepts jobs and 503
// once draining has begun.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the expvar map as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.metrics.String())
}
