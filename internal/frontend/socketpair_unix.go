//go:build unix

package frontend

import (
	"os"
	"syscall"
)

// socketpair returns the two ends of an AF_UNIX stream socket pair —
// the paper's preferred program-to-program transport. The parent's end
// is non-blocking, so os.NewFile hands it to the runtime poller: a
// reader waiting for the backend's next line parks its goroutine
// instead of holding a thread in read(2), and the thread that wakes
// from the poll runs the event loop too. The backend's end stays
// blocking, as a backend's stdio expects.
func socketpair() (parent, child *os.File, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, err
	}
	syscall.CloseOnExec(fds[0])
	if err := syscall.SetNonblock(fds[0], true); err != nil {
		syscall.Close(fds[0])
		syscall.Close(fds[1])
		return nil, nil, err
	}
	return os.NewFile(uintptr(fds[0]), "wafe-sock-parent"),
		os.NewFile(uintptr(fds[1]), "wafe-sock-child"), nil
}

// closeWrite shuts down the write half of the parent's socketpair end:
// the backend's stdin reaches EOF while its stdout stays readable.
func closeWrite(f *os.File) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.Shutdown(int(fd), syscall.SHUT_WR)
	}); err != nil {
		return err
	}
	return serr
}
