package frontend

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wafe/internal/frontend/faultio"
	"wafe/internal/obs"
)

func TestParseServeAddr(t *testing.T) {
	cases := []struct {
		in, network, addr string
		wantErr           bool
	}{
		{in: "tcp:127.0.0.1:7012", network: "tcp", addr: "127.0.0.1:7012"},
		{in: "unix:/tmp/wafe.sock", network: "unix", addr: "/tmp/wafe.sock"},
		{in: "127.0.0.1:7012", network: "tcp", addr: "127.0.0.1:7012"},
		{in: ":7012", network: "tcp", addr: ":7012"},
		{in: "/tmp/wafe.sock", network: "unix", addr: "/tmp/wafe.sock"},
		{in: "./wafe.sock", network: "unix", addr: "./wafe.sock"},
		{in: "justaname", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, c := range cases {
		network, addr, err := ParseServeAddr(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseServeAddr(%q) = %q,%q, want error", c.in, network, addr)
			}
			continue
		}
		if err != nil || network != c.network || addr != c.addr {
			t.Errorf("ParseServeAddr(%q) = %q,%q,%v; want %q,%q", c.in, network, addr, err, c.network, c.addr)
		}
	}
}

// startServer builds a Server on a TCP loopback listener plus a fresh
// metrics registry, and runs its accept loop.
func startServer(t *testing.T, cfg ServeConfig) (*Server, *obs.ServerMetrics) {
	t.Helper()
	return startServerOn(t, "tcp:127.0.0.1:0", cfg)
}

func startServerOn(t *testing.T, addr string, cfg ServeConfig) (*Server, *obs.ServerMetrics) {
	t.Helper()
	sm := obs.NewServer()
	cfg.Metrics = sm
	if cfg.Log == nil {
		cfg.Log = &syncBuffer{}
	}
	if cfg.Grace == 0 {
		cfg.Grace = 5 * time.Second
	}
	srv, err := Listen(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Shutdown()
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Shutdown")
		}
	})
	return srv, sm
}

// client is one test backend talking to a serve session over a
// connection.
type client struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	id   string
}

func dialServe(t *testing.T, srv *Server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return attachClient(t, conn)
}

// attachClient wraps an established connection and consumes the
// greeting line.
func attachClient(t *testing.T, conn net.Conn) *client {
	t.Helper()
	c := &client{t: t, conn: conn, br: bufio.NewReader(conn)}
	greeting := c.readLine()
	if !strings.HasPrefix(greeting, "wafe session s") {
		t.Fatalf("greeting = %q, want \"wafe session s<n>\"", greeting)
	}
	c.id = strings.TrimPrefix(greeting, "wafe session ")
	return c
}

func (c *client) send(line string) {
	c.t.Helper()
	if err := c.conn.SetWriteDeadline(time.Now().Add(5 * time.Second)); err == nil {
		defer c.conn.SetWriteDeadline(time.Time{})
	}
	if _, err := io.WriteString(c.conn, line+"\n"); err != nil {
		c.t.Fatalf("send %q: %v", line, err)
	}
}

func (c *client) readLine() string {
	c.t.Helper()
	type res struct {
		s   string
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := c.br.ReadString('\n')
		ch <- res{s, err}
	}()
	select {
	case v := <-ch:
		if v.err != nil {
			c.t.Fatalf("session %s read: %v", c.id, v.err)
		}
		return strings.TrimRight(v.s, "\n")
	case <-time.After(10 * time.Second):
		c.t.Fatalf("session %s: timeout waiting for line", c.id)
		return ""
	}
}

// sessionsActive counts the server's sessions, those still starting
// included.
func sessionsActive(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// waitDrained polls until no session is live.
func waitDrained(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sessionsActive(srv) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live", sessionsActive(srv))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeHandshakeAndInitCom: a connecting backend receives the
// greeting line, then the InitCom resource exactly as after a fork,
// and the line protocol works both ways.
func TestServeHandshakeAndInitCom(t *testing.T) {
	srv, sm := startServer(t, ServeConfig{Resources: "*initCom: booted\n"})
	c := dialServe(t, srv)
	defer c.conn.Close()
	if got := c.readLine(); got != "booted" {
		t.Errorf("InitCom line = %q, want \"booted\"", got)
	}
	c.send("%echo hello")
	if got := c.readLine(); got != "hello" {
		t.Errorf("echo = %q, want \"hello\"", got)
	}
	c.send("%quit")
	waitDrained(t, srv)
	if got := sm.SessionEnds.Snapshot()["quit"]; got != 1 {
		t.Errorf("session_ends.quit = %d, want 1", got)
	}
	if got := sm.SessionsTotal.Load(); got != 1 {
		t.Errorf("sessions_total = %d, want 1", got)
	}
}

// TestServeSessionIsolation: concurrent sessions create widgets and
// variables under deliberately colliding names; every session must see
// only its own values. Run under -race this also proves the sessions
// share no unsynchronized state.
func TestServeSessionIsolation(t *testing.T) {
	const sessions = 16
	srv, sm := startServer(t, ServeConfig{MaxSessions: sessions})
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			c := attachClient(t, conn)
			// Same widget name, same variable name, different values.
			c.send(fmt.Sprintf("%%label l topLevel label text-%d", i))
			c.send(fmt.Sprintf("%%set v %d", i))
			c.send("%echo [gV l label]=[set v]")
			want := fmt.Sprintf("text-%d=%d", i, i)
			if got := c.readLine(); got != want {
				errs <- fmt.Errorf("session %s: got %q, want %q", c.id, got, want)
				return
			}
			c.send("%quit")
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	waitDrained(t, srv)
	if got := sm.SessionEnds.Snapshot()["quit"]; got != sessions {
		t.Errorf("session_ends.quit = %d, want %d", got, sessions)
	}
	if got := sm.SessionsActive.Max(); got < 2 {
		t.Errorf("sessions_active high watermark = %d, want concurrency (>= 2)", got)
	}
}

// TestServeMidCommandDisconnect: a backend that vanishes mid-command
// ends only its own session; a sibling keeps dispatching. The partial
// line is delivered on EOF and evaluated (consistent with the pipe
// path), so the session departs as a clean eof.
func TestServeMidCommandDisconnect(t *testing.T) {
	srv, sm := startServer(t, ServeConfig{})
	a := dialServe(t, srv)
	b := dialServe(t, srv)
	defer b.conn.Close()

	// a dies mid-line: no newline, then the connection drops.
	if _, err := io.WriteString(a.conn, "%set half"); err != nil {
		t.Fatal(err)
	}
	a.conn.Close()

	// The sibling session keeps working while a is torn down.
	for i := 0; i < 5; i++ {
		b.send(fmt.Sprintf("%%echo ping-%d", i))
		if got := b.readLine(); got != fmt.Sprintf("ping-%d", i) {
			t.Fatalf("sibling echo = %q, want ping-%d", got, i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for sm.SessionEnds.Snapshot()["eof"] != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("session_ends = %v, want one eof", sm.SessionEnds.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if sessionsActive(srv) != 1 {
		t.Errorf("SessionsActive = %d, want 1 (only the sibling)", sessionsActive(srv))
	}
	b.send("%quit")
	waitDrained(t, srv)
}

// flakyConn injects a read fault into an otherwise healthy connection
// (faultio.FlakyReader over the real stream).
type flakyConn struct {
	net.Conn
	r io.Reader
}

func (c *flakyConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// TestServeReadErrorIsolated: a connection whose read path fails with a
// real error (not EOF) departs as readerr — and only that session; a
// sibling keeps dispatching.
func TestServeReadErrorIsolated(t *testing.T) {
	srv, sm := startServer(t, ServeConfig{})

	clientEnd, serverEnd := net.Pipe()
	faulty := &flakyConn{
		Conn: serverEnd,
		r: &faultio.FlakyReader{
			R:   serverEnd,
			N:   len("%echo before\n"),
			Err: errors.New("injected conn failure"),
		},
	}
	if _, err := srv.StartConn(faulty); err != nil {
		t.Fatal(err)
	}
	a := attachClient(t, clientEnd)
	a.send("%echo before")
	if got := a.readLine(); got != "before" {
		t.Fatalf("echo before fault = %q, want \"before\"", got)
	}
	b := dialServe(t, srv)
	defer b.conn.Close()

	// The next read on a's session hits the injected error.
	go io.WriteString(clientEnd, "%echo never-delivered\n")
	deadline := time.Now().Add(10 * time.Second)
	for sm.SessionEnds.Snapshot()["readerr"] != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("session_ends = %v, want one readerr", sm.SessionEnds.Snapshot())
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.send("%echo sibling-alive")
	if got := b.readLine(); got != "sibling-alive" {
		t.Errorf("sibling echo = %q, want \"sibling-alive\"", got)
	}
	b.send("%quit")
	waitDrained(t, srv)
	clientEnd.Close()
}

// TestServeRefusesWhenFull: the MaxSessions bound refuses extra
// connections with a diagnostic line and counts the refusal, without
// disturbing the session already running.
func TestServeRefusesWhenFull(t *testing.T) {
	srv, sm := startServer(t, ServeConfig{MaxSessions: 1})
	c := dialServe(t, srv)
	defer c.conn.Close()

	extra, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	line, err := bufio.NewReader(extra).ReadString('\n')
	if err != nil {
		t.Fatalf("refused connection: %v", err)
	}
	if !strings.Contains(line, "server full") {
		t.Errorf("refusal line = %q, want it to name \"server full\"", line)
	}
	if got := sm.Refused.Load(); got != 1 {
		t.Errorf("refused = %d, want 1", got)
	}
	// The live session is unaffected, and closing it frees the slot.
	c.send("%echo still-here")
	if got := c.readLine(); got != "still-here" {
		t.Errorf("echo = %q, want \"still-here\"", got)
	}
	c.send("%quit")
	waitDrained(t, srv)
	again := dialServe(t, srv)
	again.send("%quit")
	again.conn.Close()
	waitDrained(t, srv)
}

// TestServeGracefulShutdown: Shutdown interrupts every live session,
// classifies the departures as shutdown, unblocks Serve, and leaves
// nothing live.
func TestServeGracefulShutdown(t *testing.T) {
	sm := obs.NewServer()
	srv, err := Listen("tcp:127.0.0.1:0", ServeConfig{
		Metrics: sm,
		Log:     &syncBuffer{},
		Grace:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	var conns []net.Conn
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn)
		attachClient(t, conn)
	}
	srv.Shutdown()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v, want nil after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if n := sessionsActive(srv); n != 0 {
		t.Errorf("SessionsActive = %d after shutdown, want 0", n)
	}
	if got := sm.SessionEnds.Snapshot()["shutdown"]; got != 3 {
		t.Errorf("session_ends.shutdown = %d, want 3", got)
	}
	// New connections are now refused at the StartConn layer.
	if _, err := srv.StartConn(conns[0]); !errors.Is(err, ErrServerClosed) {
		t.Errorf("StartConn after shutdown = %v, want ErrServerClosed", err)
	}
	for _, conn := range conns {
		conn.Close()
	}
}

// TestServeUnixSocket: the unix transport speaks the same protocol,
// and closing the listener removes the socket file.
func TestServeUnixSocket(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "wafe.sock")
	srv, sm := startServerOn(t, "unix:"+sock, ServeConfig{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	c := attachClient(t, conn)
	c.send("%echo over-unix")
	if got := c.readLine(); got != "over-unix" {
		t.Errorf("echo = %q, want \"over-unix\"", got)
	}
	c.send("%quit")
	waitDrained(t, srv)
	if got := sm.SessionEnds.Snapshot()["quit"]; got != 1 {
		t.Errorf("session_ends.quit = %d, want 1", got)
	}
}

// TestServeMetricsDumpKeyedBySession: the serve-mode metrics document
// has one object per session, keyed by id, plus the aggregate — for
// completed sessions at their final state.
func TestServeMetricsDumpKeyedBySession(t *testing.T) {
	srv, sm := startServer(t, ServeConfig{})
	ids := make([]string, 2)
	for i := range ids {
		c := dialServe(t, srv)
		ids[i] = c.id
		for j := 0; j <= i; j++ {
			c.send("%echo x")
			if got := c.readLine(); got != "x" {
				t.Fatalf("echo = %q", got)
			}
		}
		c.send("%not-a-command")
		c.send("%quit")
		c.conn.Close()
	}
	waitDrained(t, srv)

	var buf strings.Builder
	if err := sm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Server   map[string]int64            `json:"server"`
		Sessions map[string]map[string]int64 `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("dump not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Server["server.sessions_total"] != 2 {
		t.Errorf("server.sessions_total = %d, want 2", doc.Server["server.sessions_total"])
	}
	for i, id := range ids {
		s, ok := doc.Sessions[id]
		if !ok {
			t.Fatalf("dump missing session %q; have %v", id, buf.String())
		}
		// echo commands (i+1), the failing one, and quit are all
		// command lines; exactly one eval error.
		wantLines := int64(i + 1 + 2)
		if s["frontend.command_lines"] != wantLines {
			t.Errorf("session %s command_lines = %d, want %d", id, s["frontend.command_lines"], wantLines)
		}
		if s["frontend.eval_errors"] != 1 {
			t.Errorf("session %s eval_errors = %d, want 1", id, s["frontend.eval_errors"])
		}
	}
	// The per-session series of /metrics agree.
	var prom strings.Builder
	if err := sm.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		for _, want := range []string{
			fmt.Sprintf("wafe_server_session_lines{session=%q} %d\n", id, i+3),
			fmt.Sprintf("wafe_server_session_errors{session=%q} 1\n", id),
		} {
			if !strings.Contains(prom.String(), want) {
				t.Errorf("/metrics lacks %q:\n%s", want, prom.String())
			}
		}
	}
}

// TestServePerSessionSeriesRetained: the per-session series of
// /metrics and the sessions of the dump document cover the live and
// the retained ended sessions only, so a server that ran more sessions
// than DoneLimit lists the last DoneLimit of them; server.dispatch_latency
// still counts the lines of every session.
func TestServePerSessionSeriesRetained(t *testing.T) {
	srv, sm := startServer(t, ServeConfig{})
	sm.DoneLimit = 2
	var ids []string
	lines := 0
	for i := 0; i < 5; i++ {
		c := dialServe(t, srv)
		ids = append(ids, c.id)
		for j := 0; j <= i; j++ {
			c.send("%echo x")
			if got := c.readLine(); got != "x" {
				t.Fatalf("echo = %q", got)
			}
		}
		c.send("%quit")
		lines += i + 2
		waitFor(t, func() bool { return sm.SessionEnds.Snapshot()["quit"] == int64(i+1) })
		c.conn.Close()
	}
	waitDrained(t, srv)

	var prom strings.Builder
	if err := sm.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"wafe_server_session_lines", "wafe_server_session_errors"} {
		var series []string
		for _, line := range strings.Split(prom.String(), "\n") {
			if strings.HasPrefix(line, family+"{") {
				series = append(series, line)
			}
		}
		if len(series) != 2 {
			t.Errorf("%s has %d series, want the 2 retained sessions:\n%s", family, len(series), strings.Join(series, "\n"))
		}
		for _, id := range ids[3:] {
			if !strings.Contains(prom.String(), fmt.Sprintf("%s{session=%q}", family, id)) {
				t.Errorf("%s lacks retained session %s", family, id)
			}
		}
	}
	if want := fmt.Sprintf("wafe_server_dispatch_latency_seconds_count %d\n", lines); !strings.Contains(prom.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}

	var buf strings.Builder
	if err := sm.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Server   map[string]int64            `json:"server"`
		Sessions map[string]map[string]int64 `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Sessions) != 2 || doc.Sessions[ids[3]] == nil || doc.Sessions[ids[4]] == nil {
		t.Errorf("dump sessions = %v, want %v", doc.Sessions, ids[3:])
	}
	if got := doc.Server["server.dispatch_latency.count"]; got != int64(lines) {
		t.Errorf("server.dispatch_latency.count = %d, want %d", got, lines)
	}
}
