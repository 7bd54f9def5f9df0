//go:build unix

package frontend

import (
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"wafe/internal/core"
	"wafe/internal/obs"
	"wafe/internal/tcl"
)

// runLoop starts the main loop and returns its exit code, failing the
// test if it does not finish in time.
func runLoop(t *testing.T, w *core.Wafe, timeout time.Duration) int {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- w.App.MainLoop() }()
	select {
	case code := <-done:
		return code
	case <-time.After(timeout):
		t.Fatal("main loop did not finish")
		return -1
	}
}

// reported returns the value of key in the supervisor's report, which
// the backend command prints.
func reported(sup *Supervisor, key string) string {
	r := sup.Report()
	for i := 0; i+1 < len(r); i += 2 {
		if r[i] == key {
			return r[i+1]
		}
	}
	return ""
}

// TestSupervisorRestartsCrashedBackend: a backend that keeps crashing
// is restarted with InitCom re-sent each time, the onBackendRestart
// script runs with percent codes expanded, and once the restart budget
// is exhausted the frontend quits with a failure code.
func TestSupervisorRestartsCrashedBackend(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
read line
echo "booted $line"
exit 42
`)
	w := core.NewTest()
	m := w.EnableObservability()
	_ = w.App.DB.Enter("*InitCom", "boot")
	_ = w.App.DB.Enter("*onBackendRestart", "set lastRestart {%r %n}")
	term := &lockedBuf{}
	f := New(w, nil, term)
	sup, err := f.Supervise(backend, nil, RestartPolicy{
		MaxRestarts: 2,
		Backoff:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	code := runLoop(t, w, 15*time.Second)
	if code != 1 {
		t.Errorf("exit code = %d, want 1 after giving up on a crashing backend", code)
	}
	// Three incarnations (initial + 2 restarts), each booted by InitCom.
	if got := strings.Count(term.String(), "booted boot"); got != 3 {
		t.Errorf("backend booted %d times, want 3; terminal:\n%s", got, term.String())
	}
	if sup.Restarts() != 2 {
		t.Errorf("Restarts() = %d, want 2", sup.Restarts())
	}
	if BackendState(reported(sup, "state")) != BackendExited {
		t.Errorf("state = %q, want %q", BackendState(reported(sup, "state")), BackendExited)
	}
	if reported(sup, "lastExitClass") != ExitCrash {
		t.Errorf("lastExitClass = %q, want %q", reported(sup, "lastExitClass"), ExitCrash)
	}
	if got := m.Frontend.BackendRestarts.Load(); got != 2 {
		t.Errorf("backend_restarts = %d, want 2", got)
	}
	if got := m.Frontend.BackendExits.Snapshot()[ExitCrash]; got != 3 {
		t.Errorf("backend_exits.crash = %d, want 3", got)
	}
	// The restart script ran with %r and %n substituted.
	if v, err := w.Eval("set lastRestart"); err != nil || v != "crash 2" {
		t.Errorf("lastRestart = %q, %v; want \"crash 2\"", v, err)
	}
	if !strings.Contains(term.String(), "giving up on backend") {
		t.Errorf("missing give-up report; terminal:\n%s", term.String())
	}
}

// TestSupervisorCleanExitQuits: without an onBackendExit script a clean
// backend exit still ends the frontend, like the unsupervised path, and
// never burns restart budget.
func TestSupervisorCleanExitQuits(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
echo "hello from backend"
exit 0
`)
	w := core.NewTest()
	m := w.EnableObservability()
	term := &lockedBuf{}
	f := New(w, nil, term)
	sup, err := f.Supervise(backend, nil, RestartPolicy{MaxRestarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if code := runLoop(t, w, 10*time.Second); code != 0 {
		t.Errorf("exit code = %d, want 0 for a clean backend exit", code)
	}
	if sup.Restarts() != 0 {
		t.Errorf("Restarts() = %d, want 0", sup.Restarts())
	}
	if got := m.Frontend.BackendExits.Snapshot()[ExitClean]; got != 1 {
		t.Errorf("backend_exits.clean = %d, want 1", got)
	}
	if !strings.Contains(term.String(), "hello from backend") {
		t.Errorf("passthrough lost; terminal:\n%s", term.String())
	}
}

// TestSupervisorExitScriptKeepsFrontendAlive: with onBackendExit
// configured, a clean backend exit runs the script instead of quitting,
// and the `backend` command reports the terminal state.
func TestSupervisorExitScriptKeepsFrontendAlive(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
exit 0
`)
	w := core.NewTest()
	_ = w.App.DB.Enter("*onBackendExit", "set gone %r")
	term := &lockedBuf{}
	f := New(w, nil, term)
	sup, err := f.Supervise(backend, nil, RestartPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- w.App.MainLoop() }()

	deadline := time.Now().Add(10 * time.Second)
	for BackendState(reported(sup, "state")) != BackendExited {
		if time.Now().After(deadline) {
			t.Fatal("supervisor never reached the exited state")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var gone, report string
	post(t, f, func() {
		gone, _ = w.Eval("set gone")
		report, _ = w.Eval("backend")
	})
	if gone != "clean" {
		t.Errorf("onBackendExit saw %%r = %q, want \"clean\"", gone)
	}
	if !strings.Contains(report, "state exited") {
		t.Errorf("backend command = %q, want it to report state exited", report)
	}
	// The frontend is still alive — the loop only ends when we ask.
	f.W.App.Post(func() { f.W.App.Quit(7) })
	select {
	case code := <-done:
		if code != 7 {
			t.Errorf("exit code = %d, want the explicit 7 (frontend must not have quit on its own)", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not finish")
	}
}

// TestBackendCommandUnsupervised: without a supervisor the `backend`
// command still answers.
func TestBackendCommandUnsupervised(t *testing.T) {
	w := core.NewTest()
	out, err := w.Eval("backend")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "state none") {
		t.Errorf("backend = %q, want state none", out)
	}
}

// TestSupervisorLifecycleSpansAndFlight: backend exits and restarts
// record lifecycle instants into the span ring, and a crash trips the
// flight recorder.
func TestSupervisorLifecycleSpansAndFlight(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
exit 42
`)
	dir := t.TempDir()
	w := core.NewTest()
	w.Flight = &obs.FlightRecorder{Dir: dir, MinInterval: time.Nanosecond}
	m := w.EnableObservability()
	m.Trace.SetEnabled(true)
	term := &lockedBuf{}
	f := New(w, nil, term)
	if _, err := f.Supervise(backend, nil, RestartPolicy{
		MaxRestarts: 1,
		Backoff:     time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if code := runLoop(t, w, 15*time.Second); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	var exits, restarts int
	for _, sp := range m.Trace.Spans() {
		if sp.Kind != "lifecycle" {
			continue
		}
		switch {
		case strings.HasPrefix(sp.Name, "backend_exit "):
			exits++
			if sp.Name != "backend_exit crash" {
				t.Errorf("exit span = %q, want backend_exit crash", sp.Name)
			}
		case sp.Name == "backend_restart":
			restarts++
		}
	}
	if exits != 2 || restarts != 1 {
		t.Errorf("lifecycle spans: %d exits, %d restarts; want 2 and 1", exits, restarts)
	}
	if m.Flight.Dumps.Load() == 0 {
		t.Error("backend crash did not trip the flight recorder")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "wafe-flight-*-backend_crash.json"))
	if len(files) == 0 {
		t.Errorf("no backend_crash flight dump in %s", dir)
	}
}

// TestShutdownLiveBackendEndsInput: a Supervisor.Shutdown started by
// the frontend while the loop runs closes the socket under the parked
// command reader, which wakes with os.ErrClosed. That is the end of
// input, not a read error: nothing reports "read error on command
// pipe", frontend.read_errors stays 0 and the exit is not classed
// readerr. The backend's background sleep holds its stdout open after
// the shell exits, so the reader sees wafe's own close, never EOF.
func TestShutdownLiveBackendEndsInput(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
sleep 60 &
echo "%started $!"
exec cat >/dev/null
`)
	w := core.NewTest()
	m := w.EnableObservability()
	started := make(chan string, 1)
	w.Interp.RegisterCommand("started", func(_ *tcl.Interp, argv []string) (string, error) {
		started <- argv[1]
		return "", nil
	})
	term := &lockedBuf{}
	f := New(w, nil, term)
	sup, err := f.Supervise(backend, nil, RestartPolicy{Grace: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- w.App.MainLoop() }()

	select {
	case pid := <-started:
		grandchild, err := strconv.Atoi(pid)
		if err != nil {
			t.Fatalf("background pid %q: %v", pid, err)
		}
		defer syscall.Kill(grandchild, syscall.SIGKILL)
	case <-time.After(10 * time.Second):
		t.Fatal("backend never reported its background process")
	}

	if err := sup.Shutdown(); err != nil {
		t.Errorf("Shutdown = %v, want the backend's clean exit", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reported(sup, "lastExitClass") == "" {
		if time.Now().After(deadline) {
			t.Fatal("the end of the command pipe never reached the supervisor")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.W.App.Post(func() { f.W.App.Quit(0) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not finish")
	}
	if strings.Contains(term.String(), "read error on command pipe") {
		t.Errorf("wafe's own close reported as a read error; terminal:\n%s", term.String())
	}
	if f.ReadErrors != 0 || m.Frontend.ReadErrors.Load() != 0 {
		t.Errorf("ReadErrors = %d, frontend.read_errors = %d; want 0", f.ReadErrors, m.Frontend.ReadErrors.Load())
	}
	if got := reported(sup, "lastExitClass"); got != ExitClean {
		t.Errorf("lastExitClass = %q, want %q", got, ExitClean)
	}
	if got := m.Frontend.BackendExits.Snapshot()[ExitReadErr]; got != 0 {
		t.Errorf("backend_exits.readerr = %d, want 0", got)
	}
	if got := BackendState(reported(sup, "state")); got != BackendStopped {
		t.Errorf("state = %q, want %q", got, BackendStopped)
	}
}
