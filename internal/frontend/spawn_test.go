//go:build unix

package frontend

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
	"wafe/internal/xaw"

	"wafe/internal/core"
)

type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func writeBackend(t *testing.T, script string) string {
	t.Helper()
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	path := filepath.Join(t.TempDir(), "backend")
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

func runToQuit(t *testing.T, w *core.Wafe) {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- w.App.MainLoop() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("main loop did not finish")
	}
}

// TestSpawnSocketpairTransport: on unix the preferred transport must
// actually be a socketpair, and the protocol must work over it.
func TestSpawnSocketpairTransport(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
echo '%label l topLevel label sock'
echo '%realize'
echo '%echo ping'
while read line; do
  case "$line" in ping) echo "pong over socketpair"; echo '%quit' ;; esac
done
`)
	w := core.NewTest()
	term := &lockedBuf{}
	f := New(w, nil, term)
	child, err := f.SpawnIPC(backend, nil, IPCSocketpair)
	if err != nil {
		t.Fatal(err)
	}
	if child.Transport != IPCSocketpair {
		t.Fatalf("transport = %v, want socketpair", child.Transport)
	}
	runToQuit(t, w)
	child.Kill()
	_ = child.Wait()
	if !strings.Contains(term.String(), "pong over socketpair") {
		t.Errorf("terminal = %q", term.String())
	}
}

// TestSpawnMassChannelFD3: the backend writes the data channel on fd 3,
// as a real Wafe application does.
func TestSpawnMassChannelFD3(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
echo '%asciiText text topLevel editType edit'
echo '%realize'
echo '%setCommunicationVariable C 10 {sV text string $C; echo got-mass}'
printf '0123456789' >&3
while read line; do
  case "$line" in got-mass) echo '%echo final [gV text string]' ;; final*) echo '%quit' ;; esac
done
`)
	w := core.NewTest()
	term := &lockedBuf{}
	f := New(w, nil, term)
	child, err := f.Spawn(backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	runToQuit(t, w)
	child.Kill()
	_ = child.Wait()
	// The loop has ended; reading the widget directly is safe.
	if got := w.App.WidgetByName("text").Str(xaw.QString); got != "0123456789" {
		t.Errorf("mass transfer over fd 3 = %q", got)
	}
}

// TestSpawnInitCom: the InitCom resource reaches the backend first.
func TestSpawnInitCom(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
read first
echo "boot: $first"
echo '%quit'
`)
	w := core.NewTest()
	_ = w.App.DB.Enter("*InitCom", "[myapp], widget_tree, read_loop.")
	term := &lockedBuf{}
	f := New(w, nil, term)
	child, err := f.Spawn(backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	runToQuit(t, w)
	child.Kill()
	_ = child.Wait()
	if !strings.Contains(term.String(), "boot: [myapp], widget_tree, read_loop.") {
		t.Errorf("InitCom not delivered: %q", term.String())
	}
}

// TestShutdownBlockedBackend: a backend blocked reading its stdin must
// see EOF when the frontend shuts down — closing the parent's write end
// is what unblocks it. Before CloseInput existed, nothing ever closed
// that end and Child.Wait deadlocked here.
func TestShutdownBlockedBackend(t *testing.T) {
	for _, ipc := range []IPC{IPCSocketpair, IPCPipe} {
		backend := writeBackend(t, `#!/bin/sh
while read line; do :; done
exit 0
`)
		w := core.NewTest()
		f := New(w, nil, &lockedBuf{})
		child, err := f.SpawnIPC(backend, nil, ipc)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		err = child.Shutdown(2 * time.Second)
		elapsed := time.Since(start)
		if err != nil {
			t.Errorf("ipc %v: Shutdown = %v, want clean EOF exit", ipc, err)
		}
		if elapsed >= 2*time.Second {
			t.Errorf("ipc %v: Shutdown took %v — stdin EOF did not unblock the backend", ipc, elapsed)
		}
	}
}

// TestShutdownHungBackend: a backend that ignores both stdin EOF and
// SIGTERM is killed on the grace deadline; Shutdown always reaps.
func TestShutdownHungBackend(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
trap '' TERM
while :; do sleep 1; done
`)
	w := core.NewTest()
	f := New(w, nil, &lockedBuf{})
	child, err := f.Spawn(backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = child.Shutdown(100 * time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Error("Shutdown = nil, want the kill to surface as an exit error")
	}
	if elapsed > 5*time.Second {
		t.Errorf("Shutdown took %v — escalation to SIGKILL did not bound the teardown", elapsed)
	}
	// Wait after Shutdown stays idempotent and agrees.
	if werr := child.Wait(); werr == nil {
		t.Error("Wait after Shutdown = nil, want the same exit error")
	}
}

// TestSpawnMissingProgram: a startup failure is reported cleanly.
func TestSpawnMissingProgram(t *testing.T) {
	w := core.NewTest()
	f := New(w, nil, &lockedBuf{})
	if _, err := f.Spawn("/no/such/backend-program", nil); err == nil {
		t.Fatal("expected spawn error")
	}
}

// stdioFlagsHelper names the environment variable that makes
// TestSpawnSocketpairNonblock, re-run as a backend, report the flags of
// its stdin and stdout.
const stdioFlagsHelper = "WAFE_TEST_STDIO_FLAGS"

// nonblocking reports whether fd has O_NONBLOCK set.
func nonblocking(fd uintptr) (bool, error) {
	flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	if errno != 0 {
		return false, errno
	}
	return flags&syscall.O_NONBLOCK != 0, nil
}

// TestSpawnSocketpairNonblock: SpawnIPC's end of the socketpair is
// non-blocking, so the runtime poller waits on it; the backend's end
// stays blocking, as a backend's stdio expects. The backend is this
// test binary, re-run to report its own descriptors.
func TestSpawnSocketpairNonblock(t *testing.T) {
	if os.Getenv(stdioFlagsHelper) != "" {
		in, err0 := nonblocking(0)
		out, err1 := nonblocking(1)
		if err0 != nil || err1 != nil {
			fmt.Fprintln(os.Stderr, "fcntl:", err0, err1)
			os.Exit(1)
		}
		fmt.Printf("%%set backendNonblock {%v %v}\n", in, out)
		os.Exit(0)
	}
	t.Setenv(stdioFlagsHelper, "1")
	w := core.NewTest()
	term := &lockedBuf{}
	f := New(w, nil, term)
	child, err := f.SpawnIPC(os.Args[0], []string{"-test.run=^TestSpawnSocketpairNonblock$"}, IPCSocketpair)
	if err != nil {
		t.Fatal(err)
	}
	if child.Transport != IPCSocketpair {
		t.Fatalf("transport = %v, want socketpair", child.Transport)
	}
	rc, err := child.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var parent bool
	var flagsErr error
	if err := rc.Control(func(fd uintptr) { parent, flagsErr = nonblocking(fd) }); err != nil {
		t.Fatal(err)
	}
	if flagsErr != nil || !parent {
		t.Errorf("parent end: O_NONBLOCK %v (%v), want set", parent, flagsErr)
	}
	runToQuit(t, w)
	_ = child.Wait()
	if got, err := w.Eval("set backendNonblock"); err != nil || got != "false false" {
		t.Errorf("backend's stdin and stdout O_NONBLOCK = %q (%v), want both clear; terminal:\n%s", got, err, term.String())
	}
}
