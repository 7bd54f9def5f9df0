package frontend

import (
	"fmt"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// BackendState is the lifecycle state the `backend` command reports.
type BackendState string

const (
	// BackendRunning: the backend process is alive and attached.
	BackendRunning BackendState = "running"
	// BackendBackoff: the backend is gone and a respawn is scheduled.
	BackendBackoff BackendState = "backoff"
	// BackendExited: the backend is gone and will not be restarted
	// (clean exit, or the restart budget is exhausted).
	BackendExited BackendState = "exited"
	// BackendStopped: the frontend initiated shutdown.
	BackendStopped BackendState = "stopped"
)

// Exit classes for metrics (frontend.backend_exits.<class>) and the %r
// percent code.
const (
	ExitClean    = "clean"   // exit status 0 after EOF
	ExitCrash    = "crash"   // non-zero status or killed by a signal
	ExitReadErr  = "readerr" // the command pipe failed mid-session
	ExitSpawnErr = "spawn"   // a respawn attempt could not start
)

// RestartPolicy configures the Supervisor. The zero value never
// restarts and uses the default timing everywhere.
type RestartPolicy struct {
	// MaxRestarts bounds consecutive restarts after crashes and pipe
	// errors; 0 disables restarting (the exit callbacks still fire).
	MaxRestarts int
	// Backoff is the delay before the first respawn; it doubles per
	// consecutive restart. Default 250ms.
	Backoff time.Duration
	// BackoffCap bounds the exponential delay. Default 5s.
	BackoffCap time.Duration
	// Stability resets the consecutive-restart counter: a backend that
	// lived at least this long crashed "fresh", not in a loop.
	// Default 10s.
	Stability time.Duration
	// Grace bounds each stage of the shutdown escalation
	// (close stdin → SIGTERM → SIGKILL). Default DefaultBackendGrace.
	Grace time.Duration
}

func (p *RestartPolicy) withDefaults() RestartPolicy {
	q := *p
	if q.Backoff <= 0 {
		q.Backoff = 250 * time.Millisecond
	}
	if q.BackoffCap <= 0 {
		q.BackoffCap = 5 * time.Second
	}
	if q.Stability <= 0 {
		q.Stability = 10 * time.Second
	}
	if q.Grace <= 0 {
		q.Grace = DefaultBackendGrace
	}
	return q
}

// backoffFor returns the exponential delay before restart attempt n
// (0-based), capped.
func (p *RestartPolicy) backoffFor(n int) time.Duration {
	d := p.Backoff
	for i := 0; i < n && d < p.BackoffCap; i++ {
		d *= 2
	}
	if d > p.BackoffCap {
		d = p.BackoffCap
	}
	return d
}

// Supervisor owns the backend Child and its lifecycle: it
// distinguishes clean exit / crash / read error, applies the restart
// policy (bounded, exponentially backed off, InitCom re-sent on every
// respawn), runs the resource-configurable onBackendExit /
// onBackendRestart scripts, and exposes state to the `backend` Tcl
// command and the frontend.* metrics.
//
// All state transitions happen on the event-loop goroutine (input
// deliveries, timers and posted closures); the mutex only guards the
// snapshot reads done by Report, tests, and the shutdown path.
type Supervisor struct {
	f       *Frontend
	program string
	args    []string
	ipc     IPC
	policy  RestartPolicy

	mu          sync.Mutex
	child       *Child
	state       BackendState
	pid         int
	restarts    int // total respawns performed
	consecutive int // respawns since the last stable run
	started     time.Time
	uptime      time.Duration // last completed backend life
	lastClass   string
	lastStatus  int
	stopping    bool
}

// Supervise spawns the backend under lifecycle supervision. The
// returned Supervisor is also wired into the interpreter: the
// `backend` command reports its state, and the resources
// onBackendExit / onBackendRestart name scripts run on those
// transitions (see docs/protocol.md).
func (f *Frontend) Supervise(program string, args []string, policy RestartPolicy) (*Supervisor, error) {
	return f.SuperviseIPC(program, args, IPCSocketpair, policy)
}

// SuperviseIPC is Supervise with an explicit transport.
func (f *Frontend) SuperviseIPC(program string, args []string, ipc IPC, policy RestartPolicy) (*Supervisor, error) {
	s := &Supervisor{
		f:       f,
		program: program,
		args:    args,
		ipc:     ipc,
		policy:  policy.withDefaults(),
		state:   BackendExited,
	}
	f.onBackendGone = s.backendGone
	if err := s.spawn(); err != nil {
		f.onBackendGone = nil
		return nil, err
	}
	f.W.BackendReport = s.Report
	return s, nil
}

// spawn starts a backend incarnation and attaches it.
func (s *Supervisor) spawn() error {
	child, err := s.f.SpawnIPC(s.program, s.args, s.ipc)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.child = child
	s.state = BackendRunning
	s.started = time.Now()
	s.pid = 0
	if child.Cmd.Process != nil {
		s.pid = child.Cmd.Process.Pid
	}
	s.mu.Unlock()
	return nil
}

// backendGone runs on the event-loop goroutine when the command pipe
// ends (EOF or read error). Reaping may block on a child that closed
// its stdout but lingers, so the wait-and-classify step runs off-loop
// (bounded by the grace escalation) and posts the decision back.
func (s *Supervisor) backendGone(readErr error) {
	s.mu.Lock()
	child := s.child
	started := s.started
	s.mu.Unlock()
	if child == nil {
		return
	}
	go func() {
		waitErr := child.Shutdown(s.policy.Grace)
		class, status := classifyExit(waitErr, readErr)
		uptime := time.Since(started)
		s.f.W.App.Post(func() { s.afterExit(class, status, uptime) })
	}()
}

// classifyExit folds the pipe error and the process status into an
// exit class: a read error dominates (the process status is collateral
// of the teardown), then the wait result decides clean vs crash.
func classifyExit(waitErr, readErr error) (class string, status int) {
	status = 0
	if ee, ok := waitErr.(*exec.ExitError); ok {
		status = ee.ExitCode()
	}
	switch {
	case readErr != nil:
		return ExitReadErr, status
	case waitErr != nil:
		return ExitCrash, status
	}
	return ExitClean, 0
}

// afterExit applies the restart policy; on the event-loop goroutine.
func (s *Supervisor) afterExit(class string, status int, uptime time.Duration) {
	s.mu.Lock()
	s.child = nil
	s.lastClass = class
	s.lastStatus = status
	s.uptime = uptime
	if uptime >= s.policy.Stability {
		s.consecutive = 0
	}
	stopping := s.stopping
	restartsLeft := s.consecutive < s.policy.MaxRestarts
	attempt := s.consecutive
	s.mu.Unlock()

	if m := s.f.W.Metrics; m != nil {
		m.Frontend.BackendExits.Inc(class)
		m.Frontend.BackendUptime.Observe(uptime.Milliseconds())
		// Lifecycle transitions are root spans: afterExit runs on the
		// loop goroutine with no protocol line open.
		m.Trace.Instant("lifecycle", "backend_exit "+class)
		if fr := m.Flight; fr != nil && class != ExitClean {
			_, _ = fr.Trip("backend_"+class, m.Trace.Session(),
				fmt.Sprintf("backend %s exited %s (status %d) after %v", s.program, class, status, uptime),
				m, &m.Trace)
		}
	}
	if stopping {
		s.setState(BackendStopped)
		return
	}
	if class == ExitClean {
		// The paper's contract: the backend exited, the frontend quits
		// too — unless an onBackendExit script takes over (a UI can
		// grey itself out instead of vanishing, then quit on its own).
		s.setState(BackendExited)
		if !s.fireCallback("onBackendExit", "OnBackendExit", class, status, uptime) {
			s.f.W.App.Quit(s.f.W.ExitCode())
		}
		return
	}
	fmt.Fprintf(s.f.Terminal, "wafe: backend %s (%s, status %d) after %v\n",
		s.program, class, status, uptime.Round(time.Millisecond))
	if !restartsLeft {
		s.setState(BackendExited)
		if s.policy.MaxRestarts > 0 {
			fmt.Fprintf(s.f.Terminal, "wafe: giving up on backend after %d restarts\n", s.restarts)
		}
		if !s.fireCallback("onBackendExit", "OnBackendExit", class, status, uptime) {
			code := s.f.W.ExitCode()
			if code == 0 {
				// A crashed backend must not look like success.
				code = 1
			}
			s.f.W.App.Quit(code)
		}
		return
	}
	delay := s.policy.backoffFor(attempt)
	s.setState(BackendBackoff)
	fmt.Fprintf(s.f.Terminal, "wafe: restarting backend in %v (attempt %d/%d)\n",
		delay.Round(time.Millisecond), attempt+1, s.policy.MaxRestarts)
	s.f.W.App.AddTimeout(delay, s.respawn)
}

// respawn runs as a timer callback on the event-loop goroutine.
func (s *Supervisor) respawn() {
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return
	}
	s.consecutive++
	s.restarts++
	n := s.restarts
	lastClass, lastStatus := s.lastClass, s.lastStatus
	s.mu.Unlock()

	if err := s.spawn(); err != nil {
		fmt.Fprintf(s.f.Terminal, "wafe: backend respawn failed: %v\n", err)
		// Treat the failed attempt like a crash with zero uptime: it
		// burns restart budget and backs off further.
		s.afterExit(ExitSpawnErr, 0, 0)
		return
	}
	if m := s.f.W.Metrics; m != nil {
		m.Frontend.BackendRestarts.Inc()
		m.Trace.Instant("lifecycle", "backend_restart")
	}
	fmt.Fprintf(s.f.Terminal, "wafe: backend restarted (pid %d, restart %d)\n", s.Pid(), n)
	s.fireCallback("onBackendRestart", "OnBackendRestart", lastClass, lastStatus, 0)
}

// fireCallback looks up the resource-configured script (like InitCom:
// <appName>.<name> / *<Class>), expands the backend percent codes and
// evaluates it. Reports whether a script was configured.
func (s *Supervisor) fireCallback(name, class string, exitClass string, status int, uptime time.Duration) bool {
	app := s.f.W.App
	script, ok := app.DB.Query([]string{app.Name}, []string{app.ClassName}, name, class)
	if !ok || script == "" {
		return false
	}
	_, err := s.f.W.EvalPercent(script, map[byte]string{
		'p': strconv.Itoa(s.Pid()),
		'n': strconv.Itoa(s.Restarts()),
		'r': exitClass,
		'x': strconv.Itoa(status),
		'u': strconv.FormatInt(uptime.Milliseconds(), 10),
	})
	if err != nil {
		fmt.Fprintf(s.f.Terminal, "wafe: %s script: %v\n", name, err)
	}
	return true
}

// Shutdown stops supervision and tears the backend down via the
// graceful escalation path (close stdin → SIGTERM → SIGKILL). Safe to
// call with the backend already gone.
func (s *Supervisor) Shutdown() error {
	s.mu.Lock()
	s.stopping = true
	s.state = BackendStopped
	child := s.child
	s.mu.Unlock()
	if child == nil {
		return nil
	}
	return child.Shutdown(s.policy.Grace)
}

func (s *Supervisor) setState(st BackendState) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// Pid returns the pid of the current (or most recent) backend.
func (s *Supervisor) Pid() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pid
}

// Restarts returns the total number of respawns performed.
func (s *Supervisor) Restarts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// Report renders the lifecycle state for the `backend` Tcl command as
// a flat name/value list.
func (s *Supervisor) Report() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	up := s.uptime
	if s.state == BackendRunning {
		up = time.Since(s.started)
	}
	return []string{
		"state", string(s.state),
		"pid", strconv.Itoa(s.pid),
		"restarts", strconv.Itoa(s.restarts),
		"lastExitClass", s.lastClass,
		"lastExitStatus", strconv.Itoa(s.lastStatus),
		"uptimeMs", strconv.FormatInt(up.Milliseconds(), 10),
	}
}
