package frontend

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"wafe/internal/xaw"

	"wafe/internal/core"
	"wafe/internal/obs"
	"wafe/internal/tcl"
)

// syncBuffer is a goroutine-safe terminal sink.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// send writes a literal protocol line (avoiding Printf interpretation
// of % prefixes).
func send(w io.Writer, s string) { _, _ = io.WriteString(w, s) }

// sendf formats and writes a protocol line.
func sendf(w io.Writer, format string, args ...any) {
	_, _ = io.WriteString(w, fmt.Sprintf(format, args...))
}

// newPipedFrontend builds a frontend wired to OS pipes and returns the
// backend-side endpoints: appOut (the backend writes its stdout there)
// and appIn (the backend reads its stdin from there).
func newPipedFrontend(t *testing.T) (f *Frontend, backendStdout *os.File, backendStdin *bufio.Reader, term *syncBuffer, cleanup func()) {
	t.Helper()
	w := core.NewTest()
	term = &syncBuffer{}
	f = New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	outR, outW, err := os.Pipe() // backend stdout → frontend
	if err != nil {
		t.Fatal(err)
	}
	inR, inW, err := os.Pipe() // frontend → backend stdin
	if err != nil {
		t.Fatal(err)
	}
	f.AttachApp(outR, inW)
	cleanup = func() {
		outW.Close()
		outR.Close()
		inW.Close()
		inR.Close()
	}
	return f, outW, bufio.NewReader(inR), term, cleanup
}

// run starts the main loop and returns a stopper.
func run(t *testing.T, f *Frontend) (stop func()) {
	t.Helper()
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	return func() {
		f.W.App.Post(func() { f.W.App.Quit(0) })
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("main loop did not stop")
		}
	}
}

// post runs fn on the event loop and waits for it.
func post(t *testing.T, f *Frontend, fn func()) {
	t.Helper()
	ch := make(chan struct{})
	f.W.App.Post(func() {
		fn()
		close(ch)
	})
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("posted function did not run")
	}
}

// metric returns the snapshot value of the named metric.
func metric(m *obs.Metrics, name string) int64 {
	for _, s := range m.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	type res struct {
		s   string
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := r.ReadString('\n')
		ch <- res{s, err}
	}()
	select {
	case v := <-ch:
		if v.err != nil {
			t.Fatalf("read: %v", v.err)
		}
		return strings.TrimRight(v.s, "\n")
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for line from frontend")
		return ""
	}
}

// TestFrontendModeRoundTrip is experiment F4: the backend submits
// %-prefixed commands, Wafe builds the UI, a button press sends a
// message back to the backend.
func TestFrontendModeRoundTrip(t *testing.T) {
	f, backendOut, backendIn, term, cleanup := newPipedFrontend(t)
	defer cleanup()
	stop := run(t, f)
	defer stop()

	// Phase 2: the backend creates and configures the widget tree.
	send(backendOut, "%form top topLevel\n")
	send(backendOut, "%command hello top callback {echo pressed}\n")
	send(backendOut, "%realize\n")
	send(backendOut, "%echo ready\n")
	if got := readLine(t, backendIn); got != "ready" {
		t.Fatalf("handshake = %q", got)
	}

	// Phase 3: a user clicks; the callback writes to the backend.
	post(t, f, func() {
		wid := f.W.App.WidgetByName("hello")
		d := wid.Display()
		win, _ := d.Lookup(wid.Window())
		x, y := win.RootCoords(2, 2)
		d.WarpPointer(x, y)
		d.InjectButtonPress(1)
		d.InjectButtonRelease(1)
		f.W.App.Pump()
	})
	if got := readLine(t, backendIn); got != "pressed" {
		t.Fatalf("callback message = %q", got)
	}
	// Non-command lines pass through to the terminal.
	send(backendOut, "plain output line\n")
	post(t, f, func() {}) // drain input deliveries
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(term.String(), "plain output line") {
		if time.Now().After(deadline) {
			t.Fatalf("terminal = %q", term.String())
		}
		time.Sleep(time.Millisecond)
		post(t, f, func() {})
	}
	if f.CommandLines < 4 || f.PassedLines != 1 {
		t.Errorf("stats: commands=%d passed=%d", f.CommandLines, f.PassedLines)
	}
}

// TestClickAhead is experiment C3: clicks queue in the pipe while the
// backend is busy, none are lost.
func TestClickAhead(t *testing.T) {
	f, backendOut, backendIn, _, cleanup := newPipedFrontend(t)
	defer cleanup()
	stop := run(t, f)
	defer stop()
	send(backendOut, "%command b topLevel callback {echo click}\n%realize\n%echo ready\n")
	if got := readLine(t, backendIn); got != "ready" {
		t.Fatalf("handshake = %q", got)
	}
	// The backend is "busy": it reads nothing while we click 25 times.
	const clicks = 25
	post(t, f, func() {
		wid := f.W.App.WidgetByName("b")
		d := wid.Display()
		win, _ := d.Lookup(wid.Window())
		x, y := win.RootCoords(2, 2)
		d.WarpPointer(x, y)
		for i := 0; i < clicks; i++ {
			d.InjectButtonPress(1)
			d.InjectButtonRelease(1)
			f.W.App.Pump()
		}
	})
	// Now the backend wakes up and reads everything that buffered.
	for i := 0; i < clicks; i++ {
		if got := readLine(t, backendIn); got != "click" {
			t.Fatalf("click %d = %q", i, got)
		}
	}
}

// TestRefreshWhileBusy is experiment C4: expose events are serviced by
// the frontend although the backend never answers.
func TestRefreshWhileBusy(t *testing.T) {
	f, backendOut, backendIn, _, cleanup := newPipedFrontend(t)
	defer cleanup()
	stop := run(t, f)
	defer stop()
	send(backendOut, "%label l topLevel label {refresh me}\n%realize\n%echo ready\n")
	if got := readLine(t, backendIn); got != "ready" {
		t.Fatalf("handshake = %q", got)
	}
	// Backend goes silent. Expose the label; the frontend redraws on
	// its own.
	var redrawn bool
	post(t, f, func() {
		wid := f.W.App.WidgetByName("l")
		d := wid.Display()
		d.ClearWindow(wid.Window()) // wipe the display list
		d.InjectExposeRect(wid.Window(), 0, 0, 0, 0)
		f.W.App.Pump()
		for _, s := range wid.Display().StringsDrawn(wid.Window()) {
			if s == "refresh me" {
				redrawn = true
			}
		}
	})
	if !redrawn {
		t.Error("frontend did not refresh while backend busy")
	}
}

// TestMassTransfer is experiment C5: the paper's getChannel /
// setCommunicationVariable mechanism with a 100 000 byte transfer.
func TestMassTransfer(t *testing.T) {
	f, backendOut, backendIn, _, cleanup := newPipedFrontend(t)
	defer cleanup()
	massR, massW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer massR.Close()
	defer massW.Close()
	f.AttachMass(massR)
	stop := run(t, f)
	defer stop()

	send(backendOut, "%asciiText text topLevel editType edit\n%realize\n")
	send(backendOut, "%echo listening on [getChannel]\n")
	if got := readLine(t, backendIn); got != "listening on 3" {
		t.Fatalf("getChannel = %q", got)
	}
	const size = 100000
	sendf(backendOut, "%%setCommunicationVariable C %d {sV text string $C; echo massdone}\n", size)
	send(backendOut, "%echo armed\n")
	if got := readLine(t, backendIn); got != "armed" {
		t.Fatalf("arm = %q", got)
	}
	payload := strings.Repeat("abcdefghij", size/10)
	go func() {
		massW.Write([]byte(payload))
	}()
	if got := readLine(t, backendIn); got != "massdone" {
		t.Fatalf("completion = %q", got)
	}
	var got string
	post(t, f, func() {
		got = f.W.App.WidgetByName("text").Str(xaw.QString)
	})
	if len(got) != size || got != payload {
		t.Errorf("transferred %d bytes, want %d (content match: %v)", len(got), size, got == payload)
	}
}

// TestMassReadsPublished: every delivery from the data channel counts
// in frontend.mass_reads, which statistics, the Prometheus text and
// the JSON dump all publish.
func TestMassReadsPublished(t *testing.T) {
	f, backendOut, backendIn, _, cleanup := newPipedFrontend(t)
	defer cleanup()
	massR, massW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer massR.Close()
	defer massW.Close()
	f.AttachMass(massR)
	stop := run(t, f)
	defer stop()
	send(backendOut, "%statistics\n%setCommunicationVariable C 100000 {echo massdone}\n%echo armed\n")
	if got := readLine(t, backendIn); got != "armed" {
		t.Fatalf("arm = %q", got)
	}
	const transfers = 3
	payload := []byte(strings.Repeat("x", 100000))
	for i := 0; i < transfers; i++ {
		go massW.Write(payload)
		if got := readLine(t, backendIn); got != "massdone" {
			t.Fatalf("transfer %d: %q", i, got)
		}
	}
	send(backendOut, "%echo [statistics frontend.mass_*]\n")
	stats := strings.Fields(readLine(t, backendIn))
	counts := map[string]string{}
	for i := 0; i+1 < len(stats); i += 2 {
		counts[stats[i]] = stats[i+1]
	}
	if counts["frontend.mass_transfers"] != "3" {
		t.Fatalf("statistics = %q", stats)
	}
	reads, err := strconv.Atoi(counts["frontend.mass_reads"])
	if err != nil || reads < transfers {
		t.Fatalf("frontend.mass_reads = %q for %d transfers", counts["frontend.mass_reads"], transfers)
	}
	// On Linux the pipe holds a whole transfer, so each takes one read;
	// the first read was sized before the arming and may take one more.
	if runtime.GOOS == "linux" && reads > transfers+1 {
		t.Errorf("%d reads for %d transfers through a grown pipe", reads, transfers)
	}
	var prom, dump strings.Builder
	post(t, f, func() {
		_ = f.W.Metrics.WritePrometheus(&prom)
		_ = f.W.Metrics.WriteJSON(&dump)
	})
	if want := "wafe_frontend_mass_reads " + strconv.Itoa(reads); !strings.Contains(prom.String(), want) {
		t.Errorf("Prometheus text lacks %q", want)
	}
	if want := `"frontend.mass_reads":` + strconv.Itoa(reads); !strings.Contains(dump.String(), want) {
		t.Errorf("JSON dump lacks %q", want)
	}
}

// readSizes is a data channel that reports the size of every read the
// frontend asks of it and returns what the test sends.
type readSizes struct {
	sizes chan int
	data  chan string
}

func (r *readSizes) Read(p []byte) (int, error) {
	r.sizes <- len(p)
	s, ok := <-r.data
	if !ok {
		return 0, io.EOF
	}
	return copy(p, s), nil
}

// TestMassReadSizes: until a transfer is armed the data channel reads
// 8 KB at a time; once armed, a read takes the whole transfer.
func TestMassReadSizes(t *testing.T) {
	w := core.NewTest()
	f := New(w, nil, &syncBuffer{})
	w.Interp.Stdout = func(string) {}
	r := &readSizes{sizes: make(chan int), data: make(chan string)}
	f.AttachMass(r)
	if got := <-r.sizes; got != 8192 {
		t.Errorf("unarmed read of %d bytes, want 8192", got)
	}
	f.HandleAppLine("%setCommunicationVariable C 100000 {echo done}")
	r.data <- "x"
	if got := <-r.sizes; got != 100000 {
		t.Errorf("armed read of %d bytes, want 100000", got)
	}
	close(r.data)
	// Run the closures the reader posted, then stop.
	w.App.Post(func() { w.App.Quit(0) })
	w.App.MainLoop()
	if got := f.massAcc.String(); got != "x" {
		t.Errorf("held %q, want the byte read", got)
	}
}

// TestCommandLineLimit is experiment C8: lines over the configured
// limit (default 64 KB) are rejected, ones under it work.
func TestCommandLineLimit(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: 1000}, term)
	longLabel := strings.Repeat("x", 800)
	f.HandleAppLine("%label ok topLevel label " + longLabel)
	if f.OverlongLines != 0 || w.App.WidgetByName("ok") == nil {
		t.Fatalf("under-limit line rejected (overlong=%d)", f.OverlongLines)
	}
	f.HandleAppLine("%label bad topLevel label " + strings.Repeat("y", 2000))
	if f.OverlongLines != 1 {
		t.Errorf("overlong not detected")
	}
	if w.App.WidgetByName("bad") != nil {
		t.Error("overlong command executed")
	}
	if !strings.Contains(term.String(), "exceeds 1000 bytes") {
		t.Errorf("terminal = %q", term.String())
	}
}

func TestCommandErrorGoesToTerminal(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	f.HandleAppLine("%nosuchcommand at all")
	if !strings.Contains(term.String(), "error in command") {
		t.Errorf("terminal = %q", term.String())
	}
}

// TestScriptErrorGoesToTerminal: a failed action script is reported on
// the terminal, and the backend, which reads the frontend's replies,
// sees none of it (docs/protocol.md).
func TestScriptErrorGoesToTerminal(t *testing.T) {
	f, toFE, fromFE, term, cleanup := newPipedFrontend(t)
	defer cleanup()
	stop := run(t, f)
	defer stop()
	send(toFE, "%label l topLevel\n%action l override {<Btn1Down>: exec(nosuchcmd)}\n%realize\n")
	send(toFE, "%sendClick l\n%echo done\n")
	if got := readLine(t, fromFE); got != "done" {
		t.Errorf("backend read %q, want only the echo", got)
	}
	want := `wafe: action error in widget l: invalid command name "nosuchcmd"`
	if !strings.Contains(term.String(), want) {
		t.Errorf("terminal = %q, want %q", term.String(), want)
	}
}

// TestArgvSplit is experiment C9: the three argument classes.
func TestArgvSplit(t *testing.T) {
	o, err := ParseArgs("wafe", []string{"--app", "backend", "-display", "host:0",
		"-xrm", "*InitCom: startup", "backendArg1", "backendArg2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Mode != ModeFrontend || o.AppProgram != "backend" {
		t.Errorf("frontend opts: %+v", o)
	}
	if o.DisplayName != "host:0" || len(o.XrmEntries) != 1 {
		t.Errorf("Xt opts: %+v", o)
	}
	if strings.Join(o.AppArgs, ",") != "backendArg1,backendArg2" {
		t.Errorf("app args: %v", o.AppArgs)
	}
	// File mode via the #! form: wafe --f script.
	o, err = ParseArgs("wafe", []string{"--f", "myscript"})
	if err != nil || o.Mode != ModeFile || o.ScriptFile != "myscript" {
		t.Errorf("file mode: %+v, %v", o, err)
	}
	// Interactive is the default.
	o, _ = ParseArgs("wafe", nil)
	if o.Mode != ModeInteractive {
		t.Errorf("default mode = %v", o.Mode)
	}
	// Errors.
	if _, err := ParseArgs("wafe", []string{"--nonsense"}); err == nil {
		t.Error("unknown frontend option accepted")
	}
	if _, err := ParseArgs("wafe", []string{"--f"}); err == nil {
		t.Error("file mode without script accepted")
	}
	if _, err := ParseArgs("wafe", []string{"--linelimit", "zero"}); err == nil {
		t.Error("bad linelimit accepted")
	}
}

// TestSymlinkDispatch: "ln -s wafe xwafeApp" runs wafeApp.
func TestSymlinkDispatch(t *testing.T) {
	if app, ok := SymlinkApp("xwafeftp"); !ok || app != "wafeftp" {
		t.Errorf("xwafeftp → %q/%v", app, ok)
	}
	if _, ok := SymlinkApp("wafe"); ok {
		t.Error("plain wafe must not dispatch")
	}
	if _, ok := SymlinkApp("mofe"); ok {
		t.Error("mofe must not dispatch")
	}
	o, err := ParseArgs("/usr/bin/X11/xwafemail", nil)
	if err != nil || o.Mode != ModeFrontend || o.AppProgram != "wafemail" {
		t.Errorf("argv0 dispatch: %+v, %v", o, err)
	}
}

// TestPrimeFactorsPhases is experiment F5: the paper's Perl demo
// simulated over the real pipe protocol — three phases: spawn, widget
// tree, read loop.
func TestPrimeFactorsPhases(t *testing.T) {
	f, backendOut, backendIn, _, cleanup := newPipedFrontend(t)
	defer cleanup()
	stop := run(t, f)
	defer stop()

	// Phase 2: the backend sends the exact widget tree of the paper's
	// Perl program.
	script := []string{
		"%form top topLevel",
		"%asciiText input top editType edit width 200",
		`%action input override {<Key>Return: exec(echo [gV input string])}`,
		"%label result top label {} width 200 fromVert input",
		"%command quitBtn top fromVert result callback quit",
		"%label info top fromVert result fromHoriz quitBtn label {} borderWidth 0 width 150",
		"%realize",
		"%echo phase2-done",
	}
	for _, l := range script {
		send(backendOut, l+"\n")
	}
	if got := readLine(t, backendIn); got != "phase2-done" {
		t.Fatalf("phase 2 = %q", got)
	}

	// Phase 3: the user types 360 and presses Return.
	post(t, f, func() {
		wid := f.W.App.WidgetByName("input")
		d := wid.Display()
		d.SetInputFocus(wid.Window())
		_ = d.TypeString("360\r")
		f.W.App.Pump()
	})
	// The frontend sends the input line to the backend.
	if got := readLine(t, backendIn); got != "360" {
		t.Fatalf("read loop received %q", got)
	}
	// The backend computes 360 = 2*2*2*3*3*5 and updates the result
	// label, like the Perl program does.
	send(backendOut, "%sV info label thinking...\n")
	send(backendOut, "%sV result label {2*2*2*3*3*5}\n")
	send(backendOut, "%sV info label {0 seconds}\n")
	send(backendOut, "%echo updated\n")
	if got := readLine(t, backendIn); got != "updated" {
		t.Fatalf("update ack = %q", got)
	}
	var result, info string
	post(t, f, func() {
		result = f.W.App.WidgetByName("result").Str(xaw.QLabel)
		info = f.W.App.WidgetByName("info").Str(xaw.QLabel)
	})
	if result != "2*2*2*3*3*5" {
		t.Errorf("result label = %q", result)
	}
	if info != "0 seconds" {
		t.Errorf("info label = %q", info)
	}
}

// TestBackendEOFQuitsFrontend: when the application program exits, the
// frontend's main loop terminates.
func TestBackendEOFQuitsFrontend(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	outR, outW, _ := os.Pipe()
	inR, inW, _ := os.Pipe()
	defer inR.Close()
	f.AttachApp(outR, inW)
	done := make(chan int, 1)
	go func() { done <- w.App.MainLoop() }()
	send(outW, "%echo hi\n")
	outW.Close() // backend exits
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("frontend did not quit on backend EOF")
	}
}

func TestInteractiveMode(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	w.Interp.Stdout = func(line string) { fmt.Fprintln(term, line) }
	input := `label l topLevel
echo [getResourceList l retVal]
set x {
multi line
}
echo done
quit
`
	prompts := 0
	if err := f.RunInteractive(strings.NewReader(input), func() { prompts++ }); err != nil {
		t.Fatal(err)
	}
	out := term.String()
	if !strings.Contains(out, "42") || !strings.Contains(out, "done") {
		t.Errorf("interactive output = %q", out)
	}
	if !w.QuitRequested() {
		t.Error("quit not processed")
	}
	if prompts < 5 {
		t.Errorf("prompts = %d", prompts)
	}
}

func TestFileMode(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Mode: ModeFile}, term)
	w.Interp.Stdout = func(line string) { fmt.Fprintln(term, line) }
	// The paper's Figure 4 file-mode script.
	script := `command hello topLevel \
  label "Wafe new World" \
  callback "echo Goodbye; quit"
realize
`
	if err := f.RunScript(script); err != nil {
		t.Fatal(err)
	}
	wid := w.App.WidgetByName("hello")
	if wid == nil || !wid.IsRealized() {
		t.Fatal("hello widget missing")
	}
	if got, _ := wid.GetValue("label"); got != "Wafe new World" {
		t.Errorf("label = %q", got)
	}
	// Click it: Goodbye + quit.
	d := wid.Display()
	win, _ := d.Lookup(wid.Window())
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	w.App.Pump()
	if !strings.Contains(term.String(), "Goodbye") || !w.QuitRequested() {
		t.Errorf("terminal=%q quit=%v", term.String(), w.QuitRequested())
	}
}

// TestSendInitCom: the InitCom resource is transmitted after the fork.
func TestSendInitCom(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	_ = w.App.DB.Enter("*InitCom", "[myapp], widget_tree, read_loop.")
	outR, outW, _ := os.Pipe()
	inR, inW, _ := os.Pipe()
	defer func() { outR.Close(); outW.Close(); inR.Close(); inW.Close() }()
	f.AttachApp(outR, inW)
	f.SendInitCom()
	br := bufio.NewReader(inR)
	line, err := br.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "[myapp], widget_tree, read_loop." {
		t.Errorf("InitCom = %q, %v", line, err)
	}
}

// TestSetValuesBurstRepaintsOnce: a burst of updates to one widget
// damages its window each time, and settling the screen afterwards
// repaints it once, as Xt's expose compression does.
func TestSetValuesBurstRepaintsOnce(t *testing.T) {
	w := core.NewTest()
	f := New(w, nil, &syncBuffer{})
	m := w.EnableObservability()
	f.HandleAppLine("%label status topLevel label {idle} width 200")
	f.HandleAppLine("%realize")
	w.App.Pump()
	repaints := func() int64 { return m.Xt.RedrawFull.Load() + m.Xt.RedrawClipped.Load() }
	before := repaints()
	for i := 0; i < 64; i++ {
		f.HandleAppLine(fmt.Sprintf("%%sV status label {load %d}", i))
	}
	w.App.Pump()
	if f.EvalErrors != 0 {
		t.Fatalf("%d eval errors", f.EvalErrors)
	}
	if got := repaints() - before; got != 1 {
		t.Errorf("64 updates then one settle repainted the label %d times, want 1", got)
	}
	l := w.App.WidgetByName("status")
	if drawn := l.Display().StringsDrawn(l.Window()); len(drawn) != 1 || drawn[0] != "load 63" {
		t.Errorf("label shows %q, want [load 63]", drawn)
	}
}

// TestInteractiveModeSettles: interactive mode runs without the event
// loop, so it settles the screen after every command itself.
func TestInteractiveModeSettles(t *testing.T) {
	w := core.NewTest()
	f := New(w, nil, &syncBuffer{})
	if err := f.RunInteractive(strings.NewReader("label l topLevel label {shown}\nrealize\nsV l label {updated}\n"), nil); err != nil {
		t.Fatal(err)
	}
	l := w.App.WidgetByName("l")
	if drawn := l.Display().StringsDrawn(l.Window()); len(drawn) != 1 || drawn[0] != "updated" {
		t.Errorf("label shows %q, want [updated]", drawn)
	}
}

// TestMassHugeArmedCount: a byte count far beyond any payload reserves
// a bounded amount of storage when the first bytes arrive, and the
// bytes wait for the rest of the transfer.
func TestMassHugeArmedCount(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	f.HandleAppLine("%setCommunicationVariable C 2000000000 {echo never}")
	if f.EvalErrors != 0 {
		t.Fatalf("arming failed: %s", term.String())
	}
	f.FeedMass("abc")
	if got := f.massAcc.String(); got != "abc" {
		t.Errorf("held %q", got)
	}
	if c := f.massAcc.Cap(); c > massGrowMax+massReadMax {
		t.Errorf("reserved %d bytes for a 3-byte delivery", c)
	}
}

// TestMassRearmOverHeldBytes: an armed script that re-arms, run over
// many transfers' worth of bytes that arrived before the arming, runs
// once per transfer without nesting: the re-arming applies when the
// script returns. A drain per re-arming used to nest until the
// interpreter refused, after about 500 transfers.
func TestMassRearmOverHeldBytes(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	runs := 0
	w.Interp.RegisterCommand("count", func(_ *tcl.Interp, argv []string) (string, error) {
		runs++
		return "", nil
	})
	f.FeedMass(strings.Repeat("x", 2000))
	f.HandleAppLine("%proc onMass {} {count; setCommunicationVariable C 1 onMass}")
	f.HandleAppLine("%setCommunicationVariable C 1 onMass")
	if runs != 2000 || f.EvalErrors != 0 || term.String() != "" {
		t.Errorf("script ran %d times for 2000 transfers, %d eval errors, terminal %.200q", runs, f.EvalErrors, term.String())
	}
}
