package main

import (
	"errors"
	"io"
	"net"
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
