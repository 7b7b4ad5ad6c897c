// Command paserve serves the prediction pipeline over HTTP/JSON: measured
// campaign cells, SP/FP model predictions, robustness sweeps, Perfetto
// traces and the process metric snapshot.
//
// Usage:
//
//	paserve [-addr :8080] [-suite paper|quick|scale]
//	        [-max-inflight 4] [-retry-after 1] [-max-body 65536]
//	        [-warm ft,ep] [-drain 10s]
//	        [-events events.jsonl] [-ring 256] [-trace serve-trace.json]
//
// Endpoints:
//
//	POST /predict        {"kernel":"ft","n":4,"f":1400}     → one grid cell
//	POST /sweep          {"kernel":"ft"}                     → the full grid
//	POST /robustness     {"kernel":"ft","ns":[4],"magnitudes":[0,1]}
//	POST /trace          {"kernel":"ft","n":4,"f":1400}     → Perfetto JSON
//	GET  /healthz
//	GET  /metrics        [?format=json]
//	GET  /debug/requests [?format=json]   (with -events or -ring)
//
// The first request for a kernel measures its campaign (bounded by
// -max-inflight; identical concurrent requests coalesce onto one sweep);
// later requests answer from the memoized campaign without admission
// control. -warm pre-measures kernels before the listener opens so a load
// test starts in the cache-hit regime. On SIGINT/SIGTERM the server stops
// accepting connections and drains in-flight requests for up to -drain.
//
// Telemetry: -events appends one wide JSON event per request (the format
// cmd/pastat analyzes) and enables /debug/requests over the last -ring
// events; -ring alone enables the debug endpoint without a file. -trace
// writes, at shutdown, a Perfetto trace of every request span with the
// campaign spans of the simulations they triggered nested inside.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/obs"
	"pasp/internal/serve"
)

// run executes the server against args, writing human output to stdout. It
// returns when the listener fails or a shutdown signal has been drained.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	suite := fs.String("suite", "paper", "kernel class scale: paper, quick or scale")
	maxInflight := fs.Int("max-inflight", 4, "maximum concurrently simulating requests (cache hits are unlimited)")
	retryAfter := fs.Int("retry-after", 1, "Retry-After seconds on 429 responses")
	maxBody := fs.Int64("max-body", 64<<10, "request body byte cap")
	warm := fs.String("warm", "", "comma-separated kernels to measure before listening (e.g. ft,ep)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain window")
	events := fs.String("events", "", "append one wide JSON event per request to this file")
	ring := fs.Int("ring", 0, "events retained for /debug/requests (0: default 256; enables the endpoint even without -events)")
	traceOut := fs.String("trace", "", "write a Perfetto trace of request + simulation spans here at shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s, err := experiments.SuiteByName(*suite)
	if err != nil {
		return err
	}

	// Telemetry sinks are wired before warming so even warm-up simulations
	// land in the trace (as root campaign spans — no request led them).
	var eventLog *obs.EventLog
	if *events != "" || *ring > 0 {
		var sink io.Writer
		if *events != "" {
			f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("paserve: opening event log: %w", err)
			}
			defer f.Close()
			sink = f
		}
		eventLog = obs.NewEventLog(sink, *ring)
	}
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.NewRecorder()
		obs.SetGlobal(rec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *warm != "" {
		for _, name := range strings.Split(*warm, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := s.MeasureKernel(ctx, name); err != nil {
				return fmt.Errorf("paserve: warming %s: %w", name, err)
			}
			fmt.Fprintf(stdout, "paserve: warmed %s\n", name)
		}
	}

	srv := serve.New(serve.Config{
		Suite:         s,
		SuiteName:     *suite,
		MaxInFlight:   *maxInflight,
		RetryAfterSec: *retryAfter,
		MaxBodyBytes:  *maxBody,
		Events:        eventLog,
		Trace:         rec,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := newHTTPServer(srv.Handler())
	fmt.Fprintf(stdout, "paserve: suite %s listening on %s\n", *suite, ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(stdout, "paserve: draining for up to %s\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("paserve: drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if rec != nil {
		if err := writeServeTrace(rec, *traceOut, stdout); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "paserve: drained, bye")
	return nil
}

// Connection deadlines. A client that stalls mid-header or mid-body, or
// leaves a keep-alive connection idle, loses it instead of holding its
// goroutine forever.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in the http.Server paserve listens with. There is
// no WriteTimeout: a cache miss simulates for as long as its sweep takes,
// so a fixed write deadline would cut off slow but legitimate answers.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// writeServeTrace exports the recorder's request and campaign spans as a
// validated Perfetto trace. Campaign spans run on the simulator's virtual
// clock, so they are rebased under the wall-clock request spans that
// triggered them before export.
func writeServeTrace(rec *obs.Recorder, path string, stdout io.Writer) error {
	spans := obs.NestSpans(rec.Spans())
	data := obs.SpansChromeTrace(spans, "paserve")
	n, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("paserve: refusing to write invalid trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("paserve: writing trace: %w", err)
	}
	fmt.Fprintf(stdout, "paserve: wrote %d trace events to %s\n", n, path)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "paserve: %v\n", err)
		os.Exit(1)
	}
}
