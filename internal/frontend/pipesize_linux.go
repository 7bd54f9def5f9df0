//go:build linux

package frontend

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// pipeMaxSize is the largest pipe an unprivileged process may ask for,
// read once from /proc/sys/fs/pipe-max-size; 0 when unreadable.
var pipeMaxSize = sync.OnceValue(func() int {
	b, err := os.ReadFile("/proc/sys/fs/pipe-max-size")
	if err != nil {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil {
		return 0
	}
	return n
})

// growPipe enlarges the pipe behind p (either end) to hold n bytes, so
// that a backend writes a whole armed transfer without waiting for
// wafe to read it. It only grows, never past pipe-max-size, and does
// nothing when p is nil or not a pipe or the kernel refuses.
func growPipe(p *os.File, n int) {
	if p == nil || n <= 0 {
		return
	}
	if n = min(n, pipeMaxSize()); n <= 0 {
		return
	}
	rc, err := p.SyscallConn()
	if err != nil {
		return
	}
	_ = rc.Control(func(fd uintptr) {
		cur, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETPIPE_SZ, 0)
		if errno == 0 && int(cur) < n {
			_, _, _ = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_SETPIPE_SZ, uintptr(n))
		}
	})
}
