package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"wafe/internal/core"
	"wafe/internal/obs"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

// Frontend drives one Wafe instance in any of the three modes. In
// frontend mode it owns the pipe pair to the application program and
// the optional mass-transfer channel.
type Frontend struct {
	W    *core.Wafe
	Opts *Options

	// Terminal receives non-command output lines from the application
	// program and diagnostics ("other lines from the application are
	// printed by Wafe to stdout").
	Terminal io.Writer

	// toApp is the application program's stdin. Wafe's echo/puts output
	// is sent there in frontend mode; the backend's read loop consumes
	// it.
	toApp io.Writer

	// mass-transfer state (setCommunicationVariable). massAcc holds
	// the bytes received toward the next transfer; once armed it is
	// grown to the whole transfer, whose string becomes the variable.
	// massPipe is the attached data pipe, grown to hold one armed
	// transfer. massWant mirrors massLimit for the data channel's
	// reader goroutine, which sizes its reads by it.
	massVar      string
	massLimit    int
	massAction   string
	massAcc      strings.Builder
	massFD       int
	massPipe     *os.File
	massWant     atomic.Int64
	massDraining bool

	// stats for tests and benchmarks. The same counts feed the
	// observability registry (frontend.* metrics) once it is enabled.
	CommandLines  int
	PassedLines   int
	OverlongLines int
	// EvalErrors counts command lines whose evaluation failed; the
	// failure itself is reported on the terminal only, so the counter
	// is the backend-visible signal (statistics, metrics dump).
	EvalErrors int
	// ReadErrors counts command-pipe read failures — a broken pipe is
	// not a clean backend exit and must not masquerade as one.
	ReadErrors int

	// onBackendGone, when non-nil, handles the end of the command pipe
	// (clean EOF or a read error) instead of the default quit. The
	// Supervisor installs itself here to classify the exit and apply
	// the restart policy.
	onBackendGone func(readErr error)
}

// New wires a Frontend around a Wafe instance.
func New(w *core.Wafe, opts *Options, terminal io.Writer) *Frontend {
	if opts == nil {
		opts = &Options{Prefix: '%', LineLimit: DefaultLineLimit}
	}
	if opts.Prefix == 0 {
		opts.Prefix = '%'
	}
	if opts.LineLimit == 0 {
		opts.LineLimit = DefaultLineLimit
	}
	f := &Frontend{W: w, Opts: opts, Terminal: terminal, massFD: 3}
	// Traces, failed scripts and dispatch errors go to the terminal,
	// never onto the backend pipe, mirroring the original debug mode
	// ("other lines ... are printed by Wafe to stdout").
	w.Terminal = func(line string) { fmt.Fprintln(f.Terminal, line) }
	f.registerCommands()
	return f
}

// registerCommands adds the frontend-mode commands getChannel and
// setCommunicationVariable.
func (f *Frontend) registerCommands() {
	f.W.Interp.RegisterCommand("getChannel", func(_ *tcl.Interp, argv []string) (string, error) {
		return strconv.Itoa(f.massFD), nil
	})
	f.W.Interp.RegisterCommand("setCommunicationVariable", func(_ *tcl.Interp, argv []string) (string, error) {
		if len(argv) != 4 {
			return "", tcl.NewError("wrong # args: should be \"setCommunicationVariable varName byteCount script\"")
		}
		n, err := strconv.Atoi(argv[2])
		if err != nil || n <= 0 {
			return "", tcl.NewError("bad byte count %q", argv[2])
		}
		f.massVar = argv[1]
		f.massLimit = n
		f.massAction = argv[3]
		f.massWant.Store(int64(n))
		growPipe(f.massPipe, n)
		// Bytes may already be buffered: the data channel and the
		// command pipe are independent inputs, so the payload can race
		// ahead of the arming command. Buffered bytes count toward the
		// transfer being armed (they are not discarded).
		f.drainMass()
		return "", nil
	})
}

// AttachApp wires the application program's stdio: appOut is the
// backend's stdout (read for `%` command lines), appIn its stdin
// (receives Wafe's echo output). The reader goroutine feeds the Xt
// event loop through AddInputEvents, mirroring XtAppAddInput on the
// pipe, and distinguishes three terminal conditions: clean EOF, a read
// error, and an overlong line (which is skipped, not terminal at all).
func (f *Frontend) AttachApp(appOut io.Reader, appIn io.Writer) {
	f.toApp = appIn
	// Route the interpreter's output to the backend.
	f.W.Interp.Stdout = func(line string) {
		fmt.Fprintln(appIn, line)
		if fl, ok := appIn.(interface{ Flush() error }); ok {
			_ = fl.Flush()
		}
	}
	events := make(chan xt.InputEvent, 256)
	go readCommandLines(bufio.NewReaderSize(appOut, 64*1024), f.Opts.LineLimit+4096, events)
	f.W.App.AddInputEvents(events, f.handleInputEvent)
}

// readCommandLines reads the backend's stdout line by line and delivers
// each as an InputEvent. A line is the bytes before a newline, without
// the newline and without one carriage return before it. A line longer
// than max bytes is cut to its first max bytes and the rest is skipped
// up to its newline (skip-and-resync), so one runaway line cannot end
// the session — the frontend rejects the cut line as overlong and the
// next line parses normally. At the end of input a final unterminated
// line is delivered, then an EOF event. A read error is delivered as a
// terminal Err event, distinct from EOF (the backend closing its
// stdout); bufio.Scanner conflated the two by stopping silently, which
// made ErrTooLong and broken pipes look like a clean backend exit.
// os.ErrClosed is the end of input too: it is how wafe's own close of
// a polled descriptor wakes the reader, after the backend has exited.
func readCommandLines(br *bufio.Reader, max int, out chan<- xt.InputEvent) {
	defer close(out)
	var buf []byte
	skipping := false
	for {
		chunk, err := br.ReadSlice('\n')
		if !skipping {
			buf = append(buf, chunk...)
		}
		switch {
		case err == nil:
			out <- xt.InputEvent{Line: lineOf(buf, max)}
			buf, skipping = buf[:0], false
		case err == bufio.ErrBufferFull:
			// Mid-line: keep reading. Beyond max bytes and one byte
			// that may be the CR of a CRLF, the line is overlong.
			if !skipping && len(buf) > max+1 {
				buf, skipping = buf[:max], true
			}
		case err == io.EOF || errors.Is(err, os.ErrClosed):
			if len(buf) > 0 || skipping {
				out <- xt.InputEvent{Line: lineOf(buf, max)}
			}
			out <- xt.InputEvent{EOF: true}
			return
		default:
			// A partial line before the error is dropped: executing a
			// truncated command would be worse than losing it.
			out <- xt.InputEvent{Err: err}
			return
		}
	}
}

// lineOf strips the line terminator (\n, optionally preceded by \r)
// and returns the line's first max bytes as a string.
func lineOf(b []byte, max int) string {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n := len(b); n > 0 && b[n-1] == '\r' {
			b = b[:n-1]
		}
	}
	return string(b[:min(len(b), max)])
}

// handleInputEvent runs on the event-loop goroutine for every delivery
// from the command pipe.
func (f *Frontend) handleInputEvent(ev xt.InputEvent) {
	switch {
	case ev.Err != nil:
		f.ReadErrors++
		if m := f.W.Metrics; m != nil {
			m.Frontend.ReadErrors.Inc()
		}
		fmt.Fprintf(f.Terminal, "wafe: read error on command pipe: %v\n", ev.Err)
		f.backendGone(ev.Err)
	case ev.EOF:
		f.backendGone(nil)
	default:
		f.HandleAppLine(ev.Line)
	}
}

// backendGone reacts to the end of the command pipe. Without a
// supervisor the frontend quits, as before; a supervisor classifies
// the exit and applies its restart policy instead.
func (f *Frontend) backendGone(readErr error) {
	if f.onBackendGone != nil {
		f.onBackendGone(readErr)
		return
	}
	f.W.App.Quit(f.W.ExitCode())
}

// HandleAppLine processes one output line from the application program:
// prefix lines are interpreted as Wafe commands, everything else passes
// through to the terminal. With observability enabled, each line's
// class and handling latency are recorded, and traceOn echoes command
// lines to the terminal. With tracing enabled the line is the root
// span of the request tree; a line over the flight recorder's latency
// threshold trips a flight dump.
func (f *Frontend) HandleAppLine(line string) {
	m := f.W.Metrics
	if m == nil {
		f.handleAppLine(line, nil)
		return
	}
	sp := m.Trace.StartSpan("line", spanLabel(line))
	start := time.Now()
	f.handleAppLine(line, m)
	d := time.Since(start)
	sp.End()
	m.Frontend.LineLatency.Observe(d)
	if fr := m.Flight; fr != nil && fr.TripLatency(d) {
		_, _ = fr.Trip("line_latency", m.Trace.Session(),
			fmt.Sprintf("line took %v: %.60q", d, line), m, &m.Trace)
	}
}

// spanLabel condenses a protocol line into a span name.
func spanLabel(line string) string {
	const max = 64
	if len(line) > max {
		line = line[:max]
	}
	return line
}

func (f *Frontend) handleAppLine(line string, m *obs.Metrics) {
	if len(line) > f.Opts.LineLimit {
		f.OverlongLines++
		if m != nil {
			m.Frontend.OverlongLines.Inc()
		}
		fmt.Fprintf(f.Terminal, "wafe: command line exceeds %d bytes (%d), ignored\n", f.Opts.LineLimit, len(line))
		return
	}
	if len(line) > 0 && line[0] == f.Opts.Prefix {
		f.CommandLines++
		if m != nil {
			m.Frontend.CommandLines.Inc()
			m.Trace.Echo("cmd", line)
		}
		if _, err := f.W.Eval(line[1:]); err != nil {
			f.EvalErrors++
			// The statistics/traceOn commands enable observability
			// mid-line; re-read so the very first failure still counts.
			if m == nil {
				m = f.W.Metrics
			}
			if m != nil {
				m.Frontend.EvalErrors.Inc()
			}
			fmt.Fprintf(f.Terminal, "wafe: error in command %.60q: %v\n", line, err)
		}
		return
	}
	f.PassedLines++
	if m != nil {
		m.Frontend.PassedLines.Inc()
	}
	fmt.Fprintln(f.Terminal, line)
}

// AttachMass wires the optional data channel: bytes read from r
// accumulate until the configured byte count is reached, then the
// transfer variable is set and the action script runs. A pipe is grown
// to hold one armed transfer, now or when a transfer is armed.
func (f *Frontend) AttachMass(r io.Reader) {
	if p, ok := r.(*os.File); ok {
		f.massPipe = p
		growPipe(p, f.massLimit)
	}
	// Two buffers, made on first use, take turns: the reader fills one
	// while the loop copies out of the other.
	free := make(chan []byte, 2)
	free <- nil
	free <- nil
	go f.readMass(r, free)
}

// Sizes on the data channel. Until a transfer is armed a read takes
// 8 KB; an armed read takes the whole transfer, up to what one read of
// a pipe can return (Linux's default pipe-max-size). A transfer's
// storage is reserved whole when its first byte arrives, up to 64 MB;
// a larger one grows as its bytes come, so that a byte count no
// payload fills reserves no more.
const (
	massReadMin = 8 << 10
	massReadMax = 1 << 20
	massGrowMax = 64 << 20
)

// readMass is the data channel's reader goroutine. Each read goes to
// the event loop as it is; the loop copies it into the transfer and
// only then hands the buffer back through free.
func (f *Frontend) readMass(r io.Reader, free chan []byte) {
	for {
		buf := <-free
		if size := min(max(int(f.massWant.Load()), massReadMin), massReadMax); cap(buf) < size {
			buf = make([]byte, size)
		}
		n, err := r.Read(buf[:cap(buf)])
		if n > 0 {
			f.W.App.Post(func() {
				f.feedMass(buf[:n])
				free <- buf
			})
		} else {
			free <- buf
		}
		if err != nil {
			return
		}
	}
}

// FeedMass delivers data-channel bytes synchronously (tests and
// benchmarks; AttachMass is the asynchronous production path).
//
//wafe:seam the end-to-end benchmark's tests feed generated transfers through it
func (f *Frontend) FeedMass(data string) {
	// feedMass only reads its argument, so it may view the string's
	// bytes in place.
	f.feedMass(unsafe.Slice(unsafe.StringData(data), len(data)))
}

// feedMass is the one accumulation path of the data channel, run on
// the event loop for every delivery. It copies b once, into storage
// grown to the armed count, and completes every transfer b fills; it
// keeps no reference to b.
func (f *Frontend) feedMass(b []byte) {
	if m := f.W.Metrics; m != nil {
		m.Frontend.MassReads.Inc()
	}
	for len(b) > 0 {
		n := len(b)
		if f.massLimit > 0 {
			need := f.massLimit - f.massAcc.Len()
			f.massAcc.Grow(min(need, massGrowMax))
			n = min(n, need)
		}
		f.massAcc.Write(b[:n])
		b = b[n:]
		f.drainMass()
	}
}

// drainMass completes the armed transfer while enough bytes are held.
// The held bytes become the variable's value without a copy; bytes
// beyond the transfer, held before a smaller arming, are copied into
// the next one. An arming made by the armed script takes effect when
// the script returns: the loop below picks it up, so a script that
// re-arms does not nest one drain per held transfer.
func (f *Frontend) drainMass() {
	if f.massDraining {
		return
	}
	f.massDraining = true
	defer func() { f.massDraining = false }()
	for f.massLimit > 0 && f.massAcc.Len() >= f.massLimit {
		data := f.massAcc.String()
		f.massAcc.Reset()
		if len(data) > f.massLimit {
			f.massAcc.WriteString(data[f.massLimit:])
			data = data[:f.massLimit]
		}
		if f.massVar != "" {
			if err := f.W.Interp.SetGlobalVar(f.massVar, data); err != nil {
				fmt.Fprintf(f.Terminal, "wafe: mass transfer variable: %v\n", err)
				continue
			}
		}
		if f.massAction != "" {
			if _, err := f.W.Eval(f.massAction); err != nil {
				fmt.Fprintf(f.Terminal, "wafe: mass transfer action: %v\n", err)
			}
		}
		if m := f.W.Metrics; m != nil {
			m.Frontend.MassTransfers.Inc()
			m.Frontend.MassBytes.Add(int64(len(data)))
		}
	}
}

// SendInitCom delivers the InitCom resource to the backend after the
// fork ("for instance in Prolog, it is convenient to send a startup
// goal"). It queries the resource database for <appName>.initCom /
// *InitCom.
func (f *Frontend) SendInitCom() {
	if f.toApp == nil {
		return
	}
	v, ok := f.W.App.DB.Query([]string{f.W.App.Name}, []string{f.W.App.ClassName}, "initCom", "InitCom")
	if !ok || v == "" {
		return
	}
	fmt.Fprintln(f.toApp, v)
	if fl, ok := f.toApp.(interface{ Flush() error }); ok {
		_ = fl.Flush()
	}
}

// RunScript evaluates a command file's content (file mode).
func (f *Frontend) RunScript(content string) error {
	_, err := f.W.Eval(content)
	if err != nil {
		return err
	}
	return nil
}

// RunInteractive reads commands from r, evaluating line by line with
// continuation: as tclsh does, each line and its newline join the
// pending text, which runs once the parser calls it a complete command
// (tcl.CommandComplete), so multi-line procs work at the prompt.
func (f *Frontend) RunInteractive(r io.Reader, prompt func()) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), f.Opts.LineLimit+4096)
	var pending strings.Builder
	if prompt != nil {
		prompt()
	}
	for sc.Scan() {
		pending.WriteString(sc.Text())
		pending.WriteByte('\n')
		script := pending.String()
		if !tcl.CommandComplete(script) {
			continue
		}
		pending.Reset()
		if strings.TrimSpace(script) == "" {
			if prompt != nil {
				prompt()
			}
			continue
		}
		res, err := f.W.Eval(script)
		// Interactive mode runs without the event loop, so it settles
		// the screen after each command itself.
		f.W.App.Pump()
		switch {
		case err != nil:
			fmt.Fprintf(f.Terminal, "error: %v\n", err)
		case res != "":
			fmt.Fprintln(f.Terminal, res)
		}
		if f.W.QuitRequested() {
			return nil
		}
		if prompt != nil {
			prompt()
		}
	}
	return sc.Err()
}
