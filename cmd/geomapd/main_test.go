package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadTimeout != readTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("timeouts header=%v read=%v idle=%v, want %v/%v/%v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v: long solves answer late, it must stay unset", hs.WriteTimeout)
	}
}

// TestHTTPServerDropsSlowHeader is the slow-client regression: a client
// that sends half a request header and then stalls is disconnected once
// the header timeout passes. The server under test is newHTTPServer's,
// with the header timeout shortened so the test runs fast.
func TestHTTPServerDropsSlowHeader(t *testing.T) {
	const timeout = 200 * time.Millisecond
	hs := newHTTPServer(http.NotFoundHandler())
	hs.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/map HTTP/1.1\r\nHost: geomapd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// Guard the read so a server that never hangs up fails the test
	// instead of hanging it.
	if err := conn.SetReadDeadline(start.Add(20 * timeout)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after a stalled half header", elapsed)
	}
	if elapsed > 10*timeout {
		t.Fatalf("server hung up after %v, header timeout %v", elapsed, timeout)
	}
}
