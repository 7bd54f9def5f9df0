package frontend

import (
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wafe/internal/obs"
)

// TestServeLoad is the serve-mode load harness: it holds many
// concurrent sessions live in one process (1024 by default,
// WAFE_SERVE_SESSIONS overrides, -short runs 64), proves they are all
// live at once, measures per-session heap cost, drives colliding-name
// traffic through every one with per-session answers verified, and
// reports dispatch-latency quantiles from the server aggregate.
//
// The summary line is machine-parseable; cmd/wafebench reads it and
// bounds p99_ns and bytes_per_session:
//
//	serveload: sessions=N lines=N p50_ns=N p99_ns=N max_ns=N bytes_per_session=N
//
// Connections are in-memory pipes through StartConn — the harness
// measures the session machinery, not kernel socket limits.
func TestServeLoad(t *testing.T) {
	sessions := 1024
	if testing.Short() {
		sessions = 64
	}
	if env := os.Getenv("WAFE_SERVE_SESSIONS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad WAFE_SERVE_SESSIONS %q", env)
		}
		sessions = n
	}
	const linesPerSession = 8

	sm := obs.NewServer()
	srv, err := Listen("tcp:127.0.0.1:0", ServeConfig{
		MaxSessions: sessions,
		Metrics:     sm,
		Log:         io.Discard,
		Grace:       30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	var baseline runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&baseline)

	// Phase 1: bring every session up and hold at the greeting until
	// all are live simultaneously.
	clients := make([]*client, sessions)
	var up sync.WaitGroup
	for i := range clients {
		clientEnd, serverEnd := net.Pipe()
		if _, err := srv.StartConn(serverEnd); err != nil {
			t.Fatal(err)
		}
		clients[i] = &client{t: t, conn: clientEnd}
		up.Add(1)
		go func(c *client) {
			defer up.Done()
			// net.Pipe writes are synchronous: consuming the greeting
			// here releases the session goroutine into its event loop.
			buf := make([]byte, 64)
			n, err := c.conn.Read(buf)
			if err != nil || n == 0 {
				t.Errorf("greeting: %v", err)
			}
		}(clients[i])
	}
	up.Wait()
	if live := sessionsActive(srv); live != sessions {
		t.Fatalf("SessionsActive = %d, want all %d live concurrently", live, sessions)
	}

	var loaded runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&loaded)
	bytesPerSession := int64(0)
	if loaded.HeapAlloc > baseline.HeapAlloc {
		bytesPerSession = int64(loaded.HeapAlloc-baseline.HeapAlloc) / int64(sessions)
	}

	// Phase 2: traffic. Every session uses the same widget and
	// variable names with its own values; each answer must come back
	// to the session that asked.
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			br := newLineReader(c.conn)
			for j := 0; j < linesPerSession-3; j++ {
				if err := writeLine(c.conn, fmt.Sprintf("%%set v %d", i)); err != nil {
					errs <- err
					return
				}
			}
			_ = writeLine(c.conn, fmt.Sprintf("%%label l topLevel label t%d", i))
			_ = writeLine(c.conn, "%echo [gV l label]=[set v]")
			want := fmt.Sprintf("t%d=%d", i, i)
			got, err := br.read()
			if err != nil {
				errs <- fmt.Errorf("session %d: %v", i, err)
				return
			}
			if got != want {
				errs <- fmt.Errorf("session %d answered %q, want %q", i, got, want)
				return
			}
			_ = writeLine(c.conn, "%quit")
		}(i, c)
	}
	wg.Wait()
	close(errs)
	failures := 0
	for err := range errs {
		failures++
		if failures <= 10 {
			t.Error(err)
		}
	}
	if failures > 10 {
		t.Errorf("... and %d more session failures", failures-10)
	}
	waitDrained(t, srv)
	for _, c := range clients {
		c.conn.Close()
	}

	lat := map[string]int64{}
	for _, s := range sm.Snapshot() {
		if name, ok := strings.CutPrefix(s.Name, "server.dispatch_latency."); ok {
			lat[name] = s.Value
		}
	}
	wantLines := int64(sessions * linesPerSession)
	if got := lat["count"]; got != wantLines {
		t.Errorf("dispatch latency observations = %d, want %d", got, wantLines)
	}
	if got := sm.SessionsActive.Max(); got != int64(sessions) {
		t.Errorf("sessions_active high watermark = %d, want %d", got, sessions)
	}
	t.Logf("serveload: sessions=%d lines=%d p50_ns=%d p99_ns=%d max_ns=%d bytes_per_session=%d",
		sessions, lat["count"], lat["p50_ns"], lat["p99_ns"], lat["max_ns"], bytesPerSession)
}

// lineReader is a minimal blocking line reader with a deadline.
type lineReader struct {
	conn net.Conn
	buf  []byte
}

func newLineReader(conn net.Conn) *lineReader { return &lineReader{conn: conn} }

func (r *lineReader) read() (string, error) {
	_ = r.conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	chunk := make([]byte, 256)
	for {
		for i, b := range r.buf {
			if b == '\n' {
				line := string(r.buf[:i])
				r.buf = append(r.buf[:0], r.buf[i+1:]...)
				return line, nil
			}
		}
		n, err := r.conn.Read(chunk)
		if n > 0 {
			r.buf = append(r.buf, chunk[:n]...)
		}
		if err != nil {
			return "", err
		}
	}
}

func writeLine(conn net.Conn, s string) error {
	_ = conn.SetWriteDeadline(time.Now().Add(60 * time.Second))
	_, err := io.WriteString(conn, s+"\n")
	return err
}
