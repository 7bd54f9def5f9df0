package frontend

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"wafe/internal/core"
	"wafe/internal/obs"
)

// DefaultMaxSessions bounds the serve-mode session pool when no
// --max-sessions was given.
const DefaultMaxSessions = 4096

// ErrServerFull is returned by StartConn when the session bound is
// reached; the connection has already been refused and closed.
var ErrServerFull = errors.New("wafe: server full")

// ErrServerClosed is returned by StartConn after Shutdown began.
var ErrServerClosed = errors.New("wafe: server closed")

// ParseServeAddr resolves the --serve address forms documented in
// docs/protocol.md:
//
//	tcp:host:port   explicit TCP
//	unix:/path      explicit Unix socket
//	host:port       TCP (contains a colon, no slash)
//	/path, ./path   Unix socket (contains a slash)
func ParseServeAddr(s string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", s[len("tcp:"):], nil
	case strings.HasPrefix(s, "unix:"):
		return "unix", s[len("unix:"):], nil
	case strings.Contains(s, "/"):
		return "unix", s, nil
	case strings.Contains(s, ":"):
		return "tcp", s, nil
	}
	return "", "", fmt.Errorf("wafe: bad --serve address %q (want tcp:host:port, unix:/path, host:port or /path)", s)
}

// ServeConfig configures a Server. Every session gets its own copy of
// the protocol options and its own resource database seeded from
// Resources/XrmEntries.
type ServeConfig struct {
	// Opts is the per-session option template (prefix, line limit,
	// app name, ...); nil uses the defaults.
	Opts *Options

	// Set selects the widget library for every session.
	Set core.WidgetSet

	// ClassName seeds each session's resource class (default "Wafe").
	ClassName string

	// MaxSessions bounds concurrently live sessions; connections over
	// the bound are refused with a diagnostic line. <= 0 means
	// DefaultMaxSessions.
	MaxSessions int

	// Log receives the server's terminal output — each session's
	// non-command lines and diagnostics, prefixed with its id. Nil
	// means os.Stdout.
	Log io.Writer

	// Metrics, when non-nil, enables observability: one registry per
	// session plus the server aggregates.
	Metrics *obs.ServerMetrics

	// Flight, when non-nil, is shared by every session: anomalies
	// (panics, backend crashes, slow lines, refused connections) dump
	// a metrics+span snapshot. Its rate limit is process-wide.
	Flight *obs.FlightRecorder

	// Resources is application-defaults text entered into every
	// session's resource database; XrmEntries follow (and win ties).
	Resources  string
	XrmEntries []string

	// Grace bounds the per-session drain during Shutdown before
	// connections are force-closed. <= 0 means DefaultBackendGrace.
	Grace time.Duration
}

// Server multiplexes many frontend sessions in one wafe process: one
// Session per accepted connection, each on its own event-loop
// goroutine, bounded by MaxSessions. A session's backend crash, parse
// error, or panic never affects its siblings — sessions share nothing
// but the widget-class tables, the quark intern table and the metrics
// registry, all of which are concurrency-safe by construction.
type Server struct {
	cfg     ServeConfig
	network string
	ln      net.Listener
	logMu   sync.Mutex // serializes session log lines onto cfg.Log

	mu       sync.Mutex
	sessions map[string]*liveSession
	closed   bool

	wg       sync.WaitGroup
	shutOnce sync.Once
	drained  chan struct{}
}

type liveSession struct {
	s    *Session
	conn net.Conn
}

// Listen binds the serve address and returns the Server; call Serve to
// accept. Resources/XrmEntries are validated once here so a config
// error fails startup instead of every connection.
func Listen(addr string, cfg ServeConfig) (*Server, error) {
	network, address, err := ParseServeAddr(addr)
	if err != nil {
		return nil, err
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Log == nil {
		cfg.Log = os.Stdout
	}
	if cfg.Grace <= 0 {
		cfg.Grace = DefaultBackendGrace
	}
	if err := validateResources(cfg.Resources, cfg.XrmEntries); err != nil {
		return nil, fmt.Errorf("wafe: --serve: %v", err)
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return nil, fmt.Errorf("wafe: --serve %s: %v", addr, err)
	}
	return &Server{
		cfg:      cfg,
		network:  network,
		ln:       ln,
		sessions: make(map[string]*liveSession),
		drained:  make(chan struct{}),
	}, nil
}

// validateResources test-enters the server's resource configuration
// into a scratch database.
func validateResources(resources string, xrm []string) error {
	scratch, err := NewSession(SessionConfig{PrivateDisplay: true})
	if err != nil {
		return err
	}
	defer scratch.Close()
	return scratch.LoadResources(resources, xrm)
}

// Addr returns the bound listener address.
func (srv *Server) Addr() net.Addr { return srv.ln.Addr() }

// Serve accepts connections until the listener closes, starting one
// session per connection. It returns nil after a graceful Shutdown has
// drained every session; a fatal listener error triggers the same
// drain and is returned.
func (srv *Server) Serve() error {
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				<-srv.drained
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if m := srv.cfg.Metrics; m != nil {
					m.AcceptErrors.Inc()
				}
				continue
			}
			srv.Shutdown()
			return err
		}
		_, _ = srv.StartConn(conn)
	}
}

// StartConn runs one connection as a session on its own goroutine and
// returns the session id without waiting. The accept loop calls it for
// every connection; the load harness calls it directly with in-memory
// pipes. The connection is closed on any failure path.
func (srv *Server) StartConn(conn net.Conn) (string, error) {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		conn.Close()
		return "", ErrServerClosed
	}
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.mu.Unlock()
		if m := srv.cfg.Metrics; m != nil {
			m.Refused.Inc()
			if fr := srv.cfg.Flight; fr != nil {
				_, _ = fr.Trip("refused", "", fmt.Sprintf("server full (%d sessions)", srv.cfg.MaxSessions), m, nil)
			}
		}
		fmt.Fprintf(conn, "wafe: server full (%d sessions)\n", srv.cfg.MaxSessions)
		conn.Close()
		return "", ErrServerFull
	}
	// Reserve the slot before building the session so a connection
	// burst cannot overshoot the bound.
	id := "s" + fmt.Sprint(sessionSeq.Add(1))
	srv.sessions[id] = nil
	srv.mu.Unlock()

	release := func() {
		srv.mu.Lock()
		delete(srv.sessions, id)
		srv.mu.Unlock()
	}

	var m *obs.Metrics
	sm := srv.cfg.Metrics
	if sm != nil {
		m = sm.AddSession(id)
		// statistics/metricsDump inside this session also report the
		// server aggregates; Snapshot never recurses back (it walks
		// SnapshotBase).
		m.Extra = sm.Snapshot
		m.Flight = srv.cfg.Flight
	}
	opts := srv.sessionOptions()
	sess, err := NewSession(SessionConfig{
		ID:             id,
		ClassName:      srv.cfg.ClassName,
		Set:            srv.cfg.Set,
		Opts:           opts,
		Terminal:       &prefixWriter{mu: &srv.logMu, w: srv.cfg.Log, prefix: "[" + id + "] "},
		Metrics:        m,
		PrivateDisplay: true,
	})
	if err != nil {
		release()
		if sm != nil {
			sm.EndSession(id, "spawnerr")
		}
		fmt.Fprintf(conn, "wafe: cannot start session: %v\n", err)
		conn.Close()
		return "", err
	}
	if err := sess.LoadResources(srv.cfg.Resources, srv.cfg.XrmEntries); err != nil {
		// Validated at Listen time; only a concurrent config mutation
		// could land here. The session still runs.
		srv.logf(id, "resources: %v", err)
	}

	ls := &liveSession{s: sess, conn: conn}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		release()
		if sm != nil {
			sm.EndSession(id, "shutdown")
		}
		sess.Close()
		conn.Close()
		return "", ErrServerClosed
	}
	srv.sessions[id] = ls
	srv.mu.Unlock()

	srv.wg.Add(1)
	go srv.runSession(ls)
	return id, nil
}

// sessionOptions clones the option template for one session.
func (srv *Server) sessionOptions() *Options {
	o := &Options{Prefix: '%', LineLimit: DefaultLineLimit, AppName: "wafe"}
	if t := srv.cfg.Opts; t != nil {
		clone := *t
		clone.XrmEntries = nil // entered via LoadResources
		o = &clone
	}
	return o
}

// runSession owns one session goroutine: handshake, protocol loop,
// teardown. A panic inside the loop is contained by Session.Run.
func (srv *Server) runSession(ls *liveSession) {
	defer srv.wg.Done()
	sess, conn := ls.s, ls.conn
	// Handshake: one greeting line carrying the session id, then the
	// InitCom resource (if configured), then the normal line protocol.
	fmt.Fprintf(conn, "wafe session %s\n", sess.ID)
	sess.AttachConn(conn)
	code, err := sess.Run()

	reason := "eof"
	switch {
	case err != nil:
		reason = "panic"
		srv.logf(sess.ID, "%v", err)
	case sess.F.ReadErrors > 0:
		reason = "readerr"
	case sess.W.QuitRequested():
		reason = "quit"
	}
	conn.Close()
	sess.Close()
	// Count the end before releasing the slot, in one critical section:
	// whoever sees SessionsActive fall sees this departure counted, and
	// whoever sees it counted sees the slot released.
	srv.mu.Lock()
	if srv.closed {
		reason = "shutdown"
	}
	if sm := srv.cfg.Metrics; sm != nil {
		sm.EndSession(sess.ID, reason)
	}
	delete(srv.sessions, sess.ID)
	srv.mu.Unlock()
	srv.logf(sess.ID, "session ended (%s, exit %d)", reason, code)
}

// Shutdown gracefully stops the server: the listener closes, every
// session's loop is asked to quit, and after the grace period any
// straggler's connection is force-closed. Blocks until all session
// goroutines have finished. Idempotent.
func (srv *Server) Shutdown() {
	srv.shutOnce.Do(func() {
		srv.mu.Lock()
		srv.closed = true
		var live []*liveSession
		for _, ls := range srv.sessions {
			if ls != nil {
				live = append(live, ls)
			}
		}
		srv.mu.Unlock()
		srv.ln.Close()
		for _, ls := range live {
			ls.s.Interrupt(0)
		}
		done := make(chan struct{})
		go func() { srv.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(srv.cfg.Grace):
			for _, ls := range live {
				ls.conn.Close()
			}
			<-done
		}
		close(srv.drained)
	})
}

// logf writes one diagnostic line for a session to the server log.
func (srv *Server) logf(id, format string, args ...any) {
	srv.logMu.Lock()
	fmt.Fprintf(srv.cfg.Log, "[%s] wafe: %s\n", id, fmt.Sprintf(format, args...))
	srv.logMu.Unlock()
}

// prefixWriter prefixes every line written through it with a session
// tag and serializes onto the shared server log. Partial lines are
// buffered until their newline arrives.
type prefixWriter struct {
	mu     *sync.Mutex
	w      io.Writer
	prefix string
	buf    []byte
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf = append(p.buf, b...)
	for {
		nl := -1
		for i, c := range p.buf {
			if c == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			return len(b), nil
		}
		line := p.buf[:nl+1]
		if _, err := io.WriteString(p.w, p.prefix); err != nil {
			return len(b), err
		}
		if _, err := p.w.Write(line); err != nil {
			return len(b), err
		}
		p.buf = append(p.buf[:0], p.buf[nl+1:]...)
	}
}
