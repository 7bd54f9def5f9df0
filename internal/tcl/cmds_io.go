package tcl

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// channel is an open file handle ("file3"-style identifiers, as in
// classic Tcl).
type channel struct {
	name   string
	f      *os.File
	r      *bufio.Reader
	w      *bufio.Writer
	atEOF  bool
	closed bool
}

// channels lives on the interpreter; lazily allocated.
type channelTable struct {
	byName map[string]*channel
	nextID int
}

func (in *Interp) channels() *channelTable {
	if in.chans == nil {
		in.chans = &channelTable{byName: make(map[string]*channel)}
	}
	return in.chans
}

func (in *Interp) lookupChannel(name string) (*channel, error) {
	ct := in.channels()
	ch, ok := ct.byName[name]
	if !ok || ch.closed {
		return nil, NewError("can not find channel named %q", name)
	}
	return ch, nil
}

// CloseAllChannels closes every open channel (embedder shutdown).
func (in *Interp) CloseAllChannels() {
	if in.chans == nil {
		return
	}
	for _, ch := range in.chans.byName {
		if !ch.closed {
			if ch.w != nil {
				_ = ch.w.Flush()
			}
			_ = ch.f.Close()
			ch.closed = true
		}
	}
}

func registerIOCommands(in *Interp) {
	in.RegisterCommand("open", cmdOpen)
	in.RegisterCommand("close", cmdClose)
	in.RegisterCommand("gets", cmdGets)
	in.RegisterCommand("read", cmdRead)
	in.RegisterCommand("eof", cmdEOF)
	in.RegisterCommand("flush", cmdFlush)
	in.RegisterCommand("file", cmdFile)
	in.RegisterCommand("exec", cmdExec)
	in.RegisterCommand("case", cmdCase)
	in.RegisterCommand("glob", cmdGlob)
	in.RegisterCommand("pwd", cmdPwd)
	in.RegisterCommand("cd", cmdCd)
}

// cmdGlob implements filename globbing: glob ?-nocomplain? pattern ...
func cmdGlob(in *Interp, argv []string) (string, error) {
	args := argv[1:]
	noComplain := false
	if len(args) > 0 && args[0] == "-nocomplain" {
		noComplain = true
		args = args[1:]
	}
	if len(args) == 0 {
		return "", arityError("glob", "?-nocomplain? pattern ?pattern ...?")
	}
	var out []string
	for _, pat := range args {
		matches, err := filepath.Glob(pat)
		if err != nil {
			return "", NewError("bad glob pattern %q: %v", pat, err)
		}
		out = append(out, matches...)
	}
	if len(out) == 0 && !noComplain {
		return "", NewError("no files matched glob pattern(s)")
	}
	sort.Strings(out)
	return FormatList(out), nil
}

func cmdPwd(in *Interp, argv []string) (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", NewError("pwd: %v", err)
	}
	return dir, nil
}

func cmdCd(in *Interp, argv []string) (string, error) {
	if err := os.Chdir(argv[1]); err != nil {
		return "", NewError("couldn't change directory to %q: %v", argv[1], err)
	}
	return "", nil
}

// cmdOpen implements "open fileName ?access?" with the classic access
// modes r, r+, w, w+, a, a+.
func cmdOpen(in *Interp, argv []string) (string, error) {
	access := "r"
	if len(argv) == 3 {
		access = argv[2]
	}
	var flags int
	switch access {
	case "r":
		flags = os.O_RDONLY
	case "r+":
		flags = os.O_RDWR
	case "w":
		flags = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	case "w+":
		flags = os.O_RDWR | os.O_CREATE | os.O_TRUNC
	case "a":
		flags = os.O_WRONLY | os.O_CREATE | os.O_APPEND
	case "a+":
		flags = os.O_RDWR | os.O_CREATE | os.O_APPEND
	default:
		return "", NewError("illegal access mode %q", access)
	}
	f, err := os.OpenFile(argv[1], flags, 0o644)
	if err != nil {
		return "", NewError("couldn't open %q: %v", argv[1], err)
	}
	ct := in.channels()
	ct.nextID++
	ch := &channel{name: "file" + strconv.Itoa(ct.nextID+2), f: f}
	if flags == os.O_RDONLY || access == "r+" || access == "w+" || access == "a+" {
		ch.r = bufio.NewReader(f)
	}
	if flags != os.O_RDONLY {
		ch.w = bufio.NewWriter(f)
	}
	ct.byName[ch.name] = ch
	return ch.name, nil
}

func cmdClose(in *Interp, argv []string) (string, error) {
	ch, err := in.lookupChannel(argv[1])
	if err != nil {
		return "", err
	}
	if ch.w != nil {
		_ = ch.w.Flush()
	}
	ch.closed = true
	delete(in.channels().byName, ch.name)
	if err := ch.f.Close(); err != nil {
		return "", NewError("close %q: %v", ch.name, err)
	}
	return "", nil
}

// cmdGets implements "gets fileId ?varName?": with a variable it
// returns the line length (-1 at EOF); without, the line itself.
func cmdGets(in *Interp, argv []string) (string, error) {
	ch, err := in.lookupChannel(argv[1])
	if err != nil {
		return "", err
	}
	if ch.r == nil {
		return "", NewError("channel %q not opened for reading", argv[1])
	}
	line, err := ch.r.ReadString('\n')
	if err != nil && line == "" {
		ch.atEOF = true
		if len(argv) == 3 {
			if err := in.SetVar(argv[2], ""); err != nil {
				return "", err
			}
			return "-1", nil
		}
		return "", nil
	}
	line = strings.TrimRight(line, "\n")
	if len(argv) == 3 {
		if err := in.SetVar(argv[2], line); err != nil {
			return "", err
		}
		return strconv.Itoa(len(line)), nil
	}
	return line, nil
}

// cmdRead implements "read fileId" (whole rest) and "read fileId n".
func cmdRead(in *Interp, argv []string) (string, error) {
	ch, err := in.lookupChannel(argv[1])
	if err != nil {
		return "", err
	}
	if ch.r == nil {
		return "", NewError("channel %q not opened for reading", argv[1])
	}
	if len(argv) == 3 {
		n, err := strconv.Atoi(argv[2])
		if err != nil || n < 0 {
			return "", NewError("bad byte count %q", argv[2])
		}
		buf := make([]byte, n)
		m, _ := fullRead(ch.r, buf)
		if m < n {
			ch.atEOF = true
		}
		return string(buf[:m]), nil
	}
	var b strings.Builder
	tmp := make([]byte, 8192)
	for {
		n, err := ch.r.Read(tmp)
		b.Write(tmp[:n])
		if err != nil {
			break
		}
	}
	ch.atEOF = true
	return b.String(), nil
}

func fullRead(r *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := r.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func cmdEOF(in *Interp, argv []string) (string, error) {
	ch, err := in.lookupChannel(argv[1])
	if err != nil {
		return "", err
	}
	if ch.atEOF {
		return "1", nil
	}
	// Peek to detect EOF without consuming.
	if ch.r != nil {
		if _, err := ch.r.Peek(1); err != nil {
			ch.atEOF = true
			return "1", nil
		}
	}
	return "0", nil
}

func cmdFlush(in *Interp, argv []string) (string, error) {
	if argv[1] == "stdout" || argv[1] == "stderr" {
		return "", nil
	}
	ch, err := in.lookupChannel(argv[1])
	if err != nil {
		return "", err
	}
	if ch.w != nil {
		if err := ch.w.Flush(); err != nil {
			return "", NewError("flush %q: %v", argv[1], err)
		}
	}
	return "", nil
}

// cmdFile implements the classic file command subset: exists, isfile,
// isdirectory, size, dirname, tail, rootname, extension, readable,
// writable.
func cmdFile(in *Interp, argv []string) (string, error) {
	op, name := argv[1], argv[2]
	stat := func() (os.FileInfo, error) { return os.Stat(name) }
	switch op {
	case "exists":
		if _, err := stat(); err == nil {
			return "1", nil
		}
		return "0", nil
	case "isfile":
		if fi, err := stat(); err == nil && fi.Mode().IsRegular() {
			return "1", nil
		}
		return "0", nil
	case "isdirectory":
		if fi, err := stat(); err == nil && fi.IsDir() {
			return "1", nil
		}
		return "0", nil
	case "size":
		fi, err := stat()
		if err != nil {
			return "", NewError("couldn't stat %q: %v", name, err)
		}
		return strconv.FormatInt(fi.Size(), 10), nil
	case "dirname":
		if i := strings.LastIndexByte(name, '/'); i > 0 {
			return name[:i], nil
		} else if i == 0 {
			return "/", nil
		}
		return ".", nil
	case "tail":
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			return name[i+1:], nil
		}
		return name, nil
	case "rootname":
		if i := strings.LastIndexByte(name, '.'); i > strings.LastIndexByte(name, '/') {
			return name[:i], nil
		}
		return name, nil
	case "extension":
		if i := strings.LastIndexByte(name, '.'); i > strings.LastIndexByte(name, '/') {
			return name[i:], nil
		}
		return "", nil
	case "readable":
		if f, err := os.Open(name); err == nil {
			f.Close()
			return "1", nil
		}
		return "0", nil
	case "writable":
		if f, err := os.OpenFile(name, os.O_WRONLY, 0); err == nil {
			f.Close()
			return "1", nil
		}
		return "0", nil
	}
	return "", NewError("bad file option %q", op)
}

// cmdExec runs a subprocess and returns its standard output with the
// trailing newline stripped, as Tcl's exec does. Pipelines and
// redirections are not supported.
func cmdExec(in *Interp, argv []string) (string, error) {
	cmd := exec.Command(argv[1], argv[2:]...)
	out, err := cmd.Output()
	res := strings.TrimRight(string(out), "\n")
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			msg := strings.TrimSpace(string(ee.Stderr))
			if msg == "" {
				msg = fmt.Sprintf("command %q exited with status %d", argv[1], ee.ExitCode())
			}
			return "", NewError("%s", msg)
		}
		return "", NewError("couldn't execute %q: %v", argv[1], err)
	}
	return res, nil
}

// cmdCase implements the Tcl 6 case command (the predecessor of
// switch): case string ?in? {pattern body pattern body ...} or inline
// pairs. Patterns are glob patterns; "default" matches anything.
func cmdCase(in *Interp, argv []string) (string, error) {
	subject := argv[1]
	rest := argv[2:]
	if rest[0] == "in" {
		rest = rest[1:]
	}
	var pairs []string
	if len(rest) == 1 {
		list, err := ParseList(rest[0])
		if err != nil {
			return "", err
		}
		pairs = list
	} else {
		pairs = rest
	}
	if len(pairs)%2 != 0 {
		return "", NewError("extra case pattern with no body")
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		pats, err := ParseList(pairs[i])
		if err != nil {
			return "", err
		}
		for _, p := range pats {
			if p == "default" || GlobMatch(p, subject) {
				return in.Eval(pairs[i+1])
			}
		}
	}
	return "", nil
}
