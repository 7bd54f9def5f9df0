//go:build linux

package frontend

import (
	"os"
	"syscall"
	"testing"

	"wafe/internal/core"
)

// pipeSize reads the capacity of the pipe behind p.
func pipeSize(t *testing.T, p *os.File) int {
	t.Helper()
	rc, err := p.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var n uintptr
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		n, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETPIPE_SZ, 0)
	}); err != nil {
		t.Fatal(err)
	}
	if errno != 0 {
		t.Fatal(errno)
	}
	return int(n)
}

func newPipe(t *testing.T) (r, w *os.File) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		r.Close()
	})
	return r, w
}

// TestGrowPipe: growPipe only grows a pipe, never past pipe-max-size,
// and leaves alone what is not a pipe.
func TestGrowPipe(t *testing.T) {
	if pipeMaxSize() < 100000 {
		t.Skipf("pipe-max-size is %d", pipeMaxSize())
	}
	r, w := newPipe(t)
	growPipe(w, 100000)
	grown := pipeSize(t, r)
	if grown < 100000 {
		t.Fatalf("pipe holds %d bytes after growing to 100000", grown)
	}
	growPipe(r, 10)
	if got := pipeSize(t, r); got != grown {
		t.Errorf("asking for 10 bytes changed the pipe from %d to %d", grown, got)
	}
	growPipe(r, 1<<40)
	if got := pipeSize(t, r); got != pipeMaxSize() {
		t.Errorf("pipe holds %d bytes, want pipe-max-size %d", got, pipeMaxSize())
	}
	growPipe(nil, 100000)
	f, err := os.CreateTemp(t.TempDir(), "notapipe")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	growPipe(f, 100000)
}

// TestMassPipeGrowsInEitherOrder: arming grows the attached data pipe
// to one transfer, and so does attaching a pipe to a frontend that is
// already armed, as a supervised restart does.
func TestMassPipeGrowsInEitherOrder(t *testing.T) {
	if pipeMaxSize() < 100000 {
		t.Skipf("pipe-max-size is %d", pipeMaxSize())
	}
	f := New(core.NewTest(), nil, &syncBuffer{})
	r1, _ := newPipe(t)
	f.AttachMass(r1)
	before := pipeSize(t, r1)
	f.HandleAppLine("%setCommunicationVariable C 100000 {echo done}")
	if got := pipeSize(t, r1); got < 100000 {
		t.Errorf("arming left the attached pipe at %d bytes (was %d)", got, before)
	}
	r2, _ := newPipe(t)
	f.AttachMass(r2)
	if got := pipeSize(t, r2); got < 100000 {
		t.Errorf("a pipe attached to an armed frontend holds %d bytes", got)
	}
}
