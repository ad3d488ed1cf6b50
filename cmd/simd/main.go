// Command simd is the simulation service daemon: it serves the
// internal/service HTTP JSON API, accepting experiment and sweep jobs
// on a bounded worker pool with memoized results, NDJSON progress
// streams and expvar metrics.
//
// Usage:
//
//	simd -addr :8210
//	simd -addr :8210 -workers 4 -backlog 64
//	simd -selftest            # end-to-end smoke against an in-process server
//
// Endpoints:
//
//	POST   /v1/jobs           submit {"experiment":"fig3","scale":0.5} or {"sweep":{...}}
//	GET    /v1/jobs           list all jobs
//	GET    /v1/jobs/{id}      job status (result table when done)
//	GET    /v1/jobs/{id}/stream  NDJSON status lines until terminal
//	DELETE /v1/jobs/{id}      cancel
//	GET    /healthz           liveness (503 while draining)
//	GET    /metrics           expvar-backed counters
//
// On SIGINT/SIGTERM the daemon stops accepting jobs, waits up to
// -drain for queued and running jobs to finish, then cancels whatever
// remains and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streamsim/internal/experiments"
	"streamsim/internal/service"
	"streamsim/internal/service/api"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

// run parses args and executes; separated from main for testing.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8210", "listen address")
		workers  = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		backlog  = fs.Int("backlog", 256, "job queue depth beyond running jobs")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-drain window on shutdown")
		selftest = fs.Bool("selftest", false, "run the end-to-end self-test and exit")
		scale    = fs.Float64("selftest-scale", 0.1, "workload scale the self-test runs experiments at")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *selftest {
		return runSelfTest(ctx, *scale, stdout)
	}
	return serve(ctx, *addr, *workers, *backlog, *drain, stdout)
}

// readHeaderTimeout bounds how long a client may take to send its
// request line and headers, and idleTimeout how long a keep-alive
// connection may wait for its next request. Without them, a client
// that never finishes its headers, or never sends another request,
// holds a connection and a goroutine for the daemon's whole life. No
// WriteTimeout is set: the NDJSON /v1/jobs/{id}/stream endpoint stays
// open for as long as its job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the HTTP server for the daemon and the
// self-test.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve runs the daemon until ctx is cancelled, then drains.
func serve(ctx context.Context, addr string, workers, backlog int, drain time.Duration, out io.Writer) error {
	svc := service.New(service.Config{Workers: workers, Backlog: backlog})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(svc.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(out, "simd: listening on %s\n", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "simd: draining (up to %s)\n", drain)
	done := make(chan struct{})
	go func() { svc.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(drain):
		fmt.Fprintln(out, "simd: drain window expired, cancelling remaining jobs")
		svc.Abort()
	}
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shctx)
}

// runSelfTest starts an in-process server on an ephemeral port and
// exercises the acceptance path end to end: every experiment's
// service result must be byte-identical to the in-process run, a
// repeat submission must be served from the memoized store, and an
// in-flight job must cancel promptly.
func runSelfTest(ctx context.Context, scale float64, out io.Writer) error {
	svc := service.New(service.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(svc.Handler())
	go httpSrv.Serve(ln) // Serve's error surfaces as client failures below
	defer httpSrv.Close()
	cl := &api.Client{Base: "http://" + ln.Addr().String()}
	if err := cl.Health(ctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "simd selftest: server up on %s\n", ln.Addr())

	// 1. Every experiment through the service, byte-identical to the
	// direct in-process run.
	for _, e := range experiments.All() {
		st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: e.ID, Scale: scale})
		if err != nil {
			return fmt.Errorf("submit %s: %w", e.ID, err)
		}
		st, err = cl.Wait(ctx, st.ID)
		if err != nil {
			return fmt.Errorf("wait %s: %w", e.ID, err)
		}
		if st.State != api.StateDone {
			return fmt.Errorf("%s: state %s (error: %s)", e.ID, st.State, st.Error)
		}
		want, err := e.Run(ctx, experiments.Options{Scale: scale})
		if err != nil {
			return fmt.Errorf("direct run %s: %w", e.ID, err)
		}
		if st.Text != want.Render() {
			return fmt.Errorf("%s: service table differs from in-process run", e.ID)
		}
		fmt.Fprintf(out, "simd selftest: %-8s ok (%d rows, matches in-process run)\n", e.ID, len(want.Rows))
	}

	// 2. A repeat submission must be answered from the memoized store.
	first := experiments.All()[0].ID
	st, err := cl.Submit(ctx, api.SubmitRequest{Experiment: first, Scale: scale})
	if err != nil {
		return err
	}
	if !st.Cached || st.State != api.StateDone {
		return fmt.Errorf("resubmitted %s: cached=%v state=%s, want memoized done job", first, st.Cached, st.State)
	}
	fmt.Fprintf(out, "simd selftest: resubmitted %s served from memo store\n", first)

	// 3. An in-flight full-scale job must cancel promptly.
	st, err = cl.Submit(ctx, api.SubmitRequest{Experiment: "fig3", Scale: 1.0})
	if err != nil {
		return err
	}
	id := st.ID
	for st.State == api.StateQueued {
		time.Sleep(10 * time.Millisecond)
		if st, err = cl.Get(ctx, id); err != nil {
			return err
		}
	}
	time.Sleep(100 * time.Millisecond) // let the replay loops spin up
	cancelAt := time.Now()
	if _, err := cl.Cancel(ctx, id); err != nil {
		return err
	}
	wctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if st, err = cl.Wait(wctx, id); err != nil {
		return fmt.Errorf("waiting for cancelled job: %w", err)
	}
	if st.State != api.StateCancelled {
		return fmt.Errorf("cancelled job ended in state %s", st.State)
	}
	fmt.Fprintf(out, "simd selftest: in-flight fig3 cancelled in %s\n", time.Since(cancelAt).Round(time.Millisecond))

	fmt.Fprintln(out, "simd selftest: PASS")
	return nil
}
