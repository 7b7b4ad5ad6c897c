package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/obs"
	"pasp/internal/serve"
)

// TestStalledHeaderIsClosed: a client that sends half a request header and
// then stalls (a slowloris connection) loses the connection once
// readHeaderTimeout has passed, instead of holding it and its goroutine
// open for good.
func TestStalledHeaderIsClosed(t *testing.T) {
	srv := serve.New(serve.Config{Suite: experiments.Quick(), Registry: obs.NewRegistry()})
	hs := newHTTPServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /predict HTTP/1.1\r\nHost: paserve\r\n"); err != nil {
		t.Fatal(err)
	}
	const slack = 3 * time.Second
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with a stalled header still open after %v; want it closed within %v",
			time.Since(start).Round(time.Millisecond), readHeaderTimeout+slack)
	}
}

// TestRunErrorNamesNoCommand: run's errors leave the "paserve: " prefix to
// main, which adds it once. An unopenable event log fails before listening.
func TestRunErrorNamesNoCommand(t *testing.T) {
	err := run([]string{"-suite", "quick", "-events", filepath.Join(t.TempDir(), "missing", "e.jsonl")}, io.Discard)
	if err == nil {
		t.Fatal("run with an unopenable event log succeeded")
	}
	if strings.HasPrefix(err.Error(), "paserve: ") {
		t.Errorf("run error %q names the command; main adds that prefix", err)
	}
}

// TestRetryAfterFlagRemoved: the 429 fallback is a constant, so run refuses
// -retry-after as an unknown flag before it starts anything. The invalid
// suite makes a run that did accept the flag fail before listening too.
func TestRetryAfterFlagRemoved(t *testing.T) {
	err := run([]string{"-retry-after", "3", "-suite", "bogus"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -retry-after") {
		t.Errorf("run(-retry-after 3) = %v, want the unknown-flag error", err)
	}
}

// TestWarmFitsModels: -warm leaves a kernel's answers rendered, which fits
// its SP and FP models, so the first /predict after start-up waits on
// neither: it allocates like any later memo hit. FT's FP fit on the quick
// suite allocates about twenty thousand objects, and a render of its grid
// some hundreds.
func TestWarmFitsModels(t *testing.T) {
	srv := serve.New(serve.Config{Suite: experiments.Quick(), Registry: obs.NewRegistry()})
	if err := warmKernels(context.Background(), srv, "ft", io.Discard); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	predict := func(body string, want int) {
		r := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != want {
			t.Fatalf("/predict %s after warm-up = %d (%s), want %d", body, w.Code, w.Body, want)
		}
	}
	hit := func() { predict(`{"kernel":"ft","n":4,"f":1400}`, http.StatusOK) }
	// An off-grid request first fills the process's one-time caches
	// (encoding/json's view of the request type), which no hit should be
	// charged for.
	predict(`{"kernel":"ft","n":3,"f":1400}`, http.StatusNotFound)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hit()
	runtime.ReadMemStats(&after)
	first := after.Mallocs - before.Mallocs
	// The first request of a handler also creates its status-class counter.
	if memo := testing.AllocsPerRun(20, hit); float64(first) > memo+10 {
		t.Errorf("first /predict after warm-up allocated %d objects, a memo hit %.0f; want a memo hit, not a render or a fit", first, memo)
	}
}
