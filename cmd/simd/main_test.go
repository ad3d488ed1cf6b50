package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the daemon's connection bounds: request
// headers must arrive within readHeaderTimeout, an idle keep-alive
// connection closes after idleTimeout, and responses have no write
// deadline, because a job's NDJSON stream lasts as long as the job
// does.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v (> 0)", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 || srv.IdleTimeout != idleTimeout {
		t.Errorf("IdleTimeout = %v, want %v (> 0)", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: it would cut /v1/jobs/{id}/stream", srv.WriteTimeout)
	}
	if srv.Handler == nil {
		t.Error("server has no handler")
	}
}
