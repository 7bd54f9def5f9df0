package frontend

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"wafe/internal/core"
	"wafe/internal/obs"
)

// sessionSeq makes auto-generated session ids (and therefore display
// namespaces) unique across every Server and Session in the process —
// two servers in one test binary must never share a virtual display.
var sessionSeq atomic.Int64

// SessionConfig configures one Session.
type SessionConfig struct {
	// ID names the session (metrics labels, log prefixes, the display
	// namespace). Empty auto-generates a process-unique "s<n>".
	ID string

	// AppName/ClassName seed the resource database paths; AppName
	// falls back to Opts.AppName, then "wafe".
	AppName   string
	ClassName string

	// Set selects the widget library.
	Set core.WidgetSet

	// Opts carries the protocol options (prefix, line limit, ...); nil
	// uses the defaults.
	Opts *Options

	// Terminal receives non-command backend output and diagnostics;
	// nil means os.Stdout.
	Terminal io.Writer

	// Metrics, when non-nil, is attached as the session's observability
	// registry (the serve layer creates it inside the ServerMetrics).
	Metrics *obs.Metrics

	// PrivateDisplay gives the session its own display namespace (its
	// ID), isolating even colliding display names from other sessions.
	// When false, DisplayName selects a shared registry display — the
	// classic single-process behavior.
	PrivateDisplay bool
	DisplayName    string
}

// Session promotes the implicit "one backend, one interpreter, one
// display" wiring of the classic wafe process into an explicit value:
// each Session owns its own Tcl interpreter, its own named virtual
// display (and any secondary displays its scripts open), its own
// widget tree, event loop and — when a child process is attached — its
// own Supervisor. The classic single-process modes construct exactly
// one Session around stdin/stdout; serve mode constructs one per
// accepted connection. Run drives the event loop with crash isolation;
// Close releases the session's process-global footprint.
type Session struct {
	ID string
	W  *core.Wafe
	F  *Frontend

	sup       *Supervisor
	closeOnce sync.Once
}

// NewSession builds a Session: one Wafe instance (interpreter, Xt app
// context, topLevel shell) wrapped by one Frontend.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.ID == "" {
		cfg.ID = "s" + strconv.FormatInt(sessionSeq.Add(1), 10)
	}
	appName := cfg.AppName
	if appName == "" && cfg.Opts != nil {
		appName = cfg.Opts.AppName
	}
	ns := ""
	if cfg.PrivateDisplay {
		ns = cfg.ID
	}
	w, err := core.New(core.Config{
		AppName:          appName,
		ClassName:        cfg.ClassName,
		DisplayName:      cfg.DisplayName,
		Set:              cfg.Set,
		DisplayNamespace: ns,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Opts != nil && cfg.Opts.TraceRing > 0 {
		// Applied when observability is enabled — now, if the serve
		// layer handed us a registry, or later when a traceOn/statistics
		// command enables it lazily.
		w.TraceRingSize = cfg.Opts.TraceRing
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Trace.SetSession(cfg.ID)
		w.EnableObservabilityWith(cfg.Metrics)
	}
	term := cfg.Terminal
	if term == nil {
		term = os.Stdout
	}
	f := New(w, cfg.Opts, term)
	return &Session{ID: cfg.ID, W: w, F: f}, nil
}

// LoadResources enters an application-defaults text and -xrm entries
// into the session's resource database (resources first, so -xrm wins
// ties, matching startup order).
func (s *Session) LoadResources(resources string, xrm []string) error {
	if resources != "" {
		if err := s.W.App.DB.EnterString(resources); err != nil {
			return fmt.Errorf("resource file: %v", err)
		}
	}
	for _, e := range xrm {
		if err := s.W.App.DB.EnterString(e); err != nil {
			return fmt.Errorf("-xrm: %v", err)
		}
	}
	return nil
}

// AttachConn wires a bidirectional stream (a serve-mode connection) as
// the session's backend: lines read from rw are command lines, the
// interpreter's output is written back, and the InitCom resource is
// delivered first, exactly as after a fork.
func (s *Session) AttachConn(rw io.ReadWriter) {
	s.F.AttachApp(rw, rw)
	s.F.SendInitCom()
}

// Supervise spawns a child backend under this session's own lifecycle
// supervision (PR 3 semantics, scoped to the session).
func (s *Session) Supervise(program string, args []string, policy RestartPolicy) (*Supervisor, error) {
	sup, err := s.F.Supervise(program, args, policy)
	if err != nil {
		return nil, err
	}
	s.sup = sup
	return sup, nil
}

// Run drives the session's event loop until quit, converting a panic
// anywhere on the loop (a command, callback, or dispatch bug) into an
// error return instead of taking the process — one session's crash
// must never affect its siblings.
func (s *Session) Run() (code int, err error) {
	defer func() {
		if p := recover(); p != nil {
			code = 1
			err = fmt.Errorf("session %s panic: %v\n%s", s.ID, p, debug.Stack())
			if m := s.W.Metrics; m != nil && m.Flight != nil {
				_, _ = m.Flight.Trip("panic", s.ID, fmt.Sprintf("%v", p), m, &m.Trace)
			}
		}
	}()
	return s.W.App.MainLoop(), nil
}

// Interrupt asks the session's event loop to quit with the given code;
// safe from any goroutine (the server's graceful shutdown path).
func (s *Session) Interrupt(code int) {
	s.W.App.Post(func() { s.W.App.Quit(code) })
}

// Close retires the session: the supervised backend (if any) is torn
// down through the graceful escalation, and the session's virtual
// displays and drag-and-drop context leave the process-global
// registries. Idempotent; must run after the event loop stopped.
func (s *Session) Close() {
	s.closeOnce.Do(func() {
		if s.sup != nil {
			_ = s.sup.Shutdown()
		}
		s.W.Close()
	})
}
