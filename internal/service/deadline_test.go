package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"streamsim/internal/search"
	"streamsim/internal/service/api"
)

// shortBodyTimeout shortens the POST body deadline for one test. Call
// it before starting the server, so its goroutines see the new value.
func shortBodyTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	prev := bodyTimeout
	bodyTimeout = d
	t.Cleanup(func() { bodyTimeout = prev })
}

// TestStalledBodyTimesOut: a client that sends its headers and part of
// a body, then stalls, gets a 4xx on either POST endpoint once the body
// deadline passes, and no job is created.
func TestStalledBodyTimesOut(t *testing.T) {
	shortBodyTimeout(t, 200*time.Millisecond)
	var calls atomic.Int64
	_, cl := newTestServer(t, Config{Workers: 1, RunJob: instantRunner(&calls)})
	addr := strings.TrimPrefix(cl.Base, "http://")
	for _, path := range []string{api.JobsPath, api.OptimizePath} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		part := `{"experiment": "tab`
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			path, addr, len(part)+64, part)
		start := time.Now()
		// The test's own bound: a server without a body deadline would
		// never answer.
		if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("POST %s with a stalled body: no response: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("POST %s with a stalled body: status %d, want 4xx", path, resp.StatusCode)
		}
		if took := time.Since(start); took > bodyTimeout+2*time.Second {
			t.Errorf("POST %s with a stalled body answered after %v, deadline %v", path, took, bodyTimeout)
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
	if len(list) != 0 || calls.Load() != 0 {
		t.Errorf("stalled bodies created %d jobs and ran %d, want none", len(list), calls.Load())
	}
}

// TestStreamOutlivesBodyDeadline: the body deadline covers the decode
// only. A POST /v1/optimize stream, and a GET /v1/jobs/{id}/stream
// sent after a POST on the same client, both run well past it to
// their terminal line.
func TestStreamOutlivesBodyDeadline(t *testing.T) {
	shortBodyTimeout(t, 100*time.Millisecond)
	wait := 5 * bodyTimeout
	errLong := errors.New("long generation over")
	started := make(chan string, 1)
	release := make(chan struct{})
	_, cl := newTestServer(t, Config{
		Workers: 2,
		RunJob:  blockingRunner(started, release),
		RunOptimize: func(ctx context.Context, s search.Spec, onProgress func(search.Progress)) (*search.Result, error) {
			onProgress(search.Progress{Strategy: s.Strategy, Evals: 1, Budget: s.Budget, FrontSize: 1})
			select {
			case <-time.After(wait):
				return nil, errLong
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})

	body, err := json.Marshal(optimizeSpec())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := cl.HTTP.Post(cl.Base+api.OptimizePath, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := decodeLines(t, resp)
	last := lines[len(lines)-1]
	if last.State != api.StateFailed || last.Error != errLong.Error() || time.Since(start) < wait {
		t.Errorf("optimize stream ended with %s %q after %v, want failed %q after %v",
			last.State, last.Error, time.Since(start), errLong, wait)
	}

	st, err := cl.Submit(context.Background(), api.SubmitRequest{Experiment: "table1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	time.AfterFunc(wait, func() { close(release) })
	sresp, err := cl.HTTP.Get(cl.Base + api.JobsPath + "/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	lines = decodeLines(t, sresp)
	if last := lines[len(lines)-1]; last.State != api.StateDone {
		t.Errorf("job stream ended in state %s, want done", last.State)
	}
}
