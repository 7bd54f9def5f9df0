package frontend

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"wafe/internal/core"
	"wafe/internal/tcl"
)

// TestBalanced covers interactive continuation, which asks the parser
// whether a line and its newline end a command: quoted braces do not
// count, and unclosed quotes, braces, substitutions and indexes
// continue. The rows after the first block carry tclsh 8.6's
// `info complete` answers.
func TestBalanced(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"echo hi", true},
		{"proc f {} {", false},
		{"proc f {} {\nbody\n}", true},
		{"set x [llength $y", false},
		{`set x "a{b"`, true},     // quoted brace is not an opener
		{`set x "a}b"`, true},     // quoted brace is not a closer
		{`set x "a{b`, false},     // unclosed quote continues
		{"}{", true},              // a bare word's braces are characters
		{"} {foo", false},         // the braced word after it is open
		{"set x \\{", true},       // escaped brace is literal
		{"set x {a\"b}", true},    // quote inside braces is ordinary
		{"set x {a\"b} {", false}, // ...and does not hide later openers
		{`puts "x" ; set y {1 2}`, true},

		{`puts a"b`, true},      // a quote inside a bare word is a character
		{"# note {", true},      // a comment ends at its newline
		{`set a [b "]"]`, true}, // the quoted ']' does not end the substitution
		{"puts $a(x", false},    // open array index
		{`set x "[`, false},     // open substitution in a quoted word
		{"puts ${abc", false},   // open ${name}
		{"puts $a((x)", true},   // an index ends at its first ')'
		{"puts $a(b(c))", true}, // ...so the second ')' is a character
		{"set {a((x)} 1", true},
	}
	for _, c := range cases {
		if got := tcl.CommandComplete(c.in + "\n"); got != c.want {
			t.Errorf("CommandComplete(%q) = %v, want %v", c.in+"\n", got, c.want)
		}
	}
}

// TestInteractiveQuotedBrace: a brace inside a quoted string used to
// leave the prompt accumulating forever; now the line evaluates. So do
// a line whose bare word holds a quote and a comment holding a brace,
// which Tcl calls complete, and the lines after them.
func TestInteractiveQuotedBrace(t *testing.T) {
	for _, c := range []struct{ input, want string }{
		{"echo \"open{brace\"\necho done\nquit\n", "open{brace\ndone\n"},
		{"puts a\"b\necho done\n", "a\"b\ndone\n"},
		{"# note {\necho done\n", "done\n"},
		// An array index ends at its first ')', as in Tcl 8.6: tclsh
		// prints 1 and next for the first input, 1) for the second.
		// Interactive mode also echoes set's result.
		{"set {a((x)} 1\nputs $a((x)\nputs next\n", "1\n1\nnext\n"},
		{"set a(b(c) 1\nputs $a(b(c))\n", "1\n1)\n"},
	} {
		w := core.NewTest()
		term := &syncBuffer{}
		f := New(w, nil, term)
		w.Interp.Stdout = func(line string) { fmt.Fprintln(term, line) }
		if err := f.RunInteractive(strings.NewReader(c.input), nil); err != nil {
			t.Fatal(err)
		}
		if out := term.String(); out != c.want {
			t.Errorf("input %q: interactive output = %q, want %q", c.input, out, c.want)
		}
	}
}

// TestFrontendAccounting covers the CommandLines / PassedLines /
// OverlongLines / EvalErrors fields and their metric mirrors.
func TestFrontendAccounting(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: 100}, term)
	m := w.EnableObservability()

	f.HandleAppLine("%echo ok")                     // command
	f.HandleAppLine("plain")                        // passthrough
	f.HandleAppLine("%" + strings.Repeat("x", 200)) // overlong
	f.HandleAppLine("%nosuchcommand")               // eval error

	if f.CommandLines != 2 || f.PassedLines != 1 || f.OverlongLines != 1 || f.EvalErrors != 1 {
		t.Errorf("fields: cmd=%d passed=%d overlong=%d evalErr=%d",
			f.CommandLines, f.PassedLines, f.OverlongLines, f.EvalErrors)
	}
	for name, want := range map[string]int64{
		"frontend.command_lines":  2,
		"frontend.passed_lines":   1,
		"frontend.overlong_lines": 1,
		"frontend.eval_errors":    1,
	} {
		if got := metric(m, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := metric(m, "frontend.line_latency.count"); got != 4 {
		t.Errorf("line latency count = %d, want 4", got)
	}
	if !strings.Contains(term.String(), "error in command") {
		t.Errorf("terminal = %q", term.String())
	}
}

// TestDispatchErrorsReported: an action that a translation names but
// nothing binds is written on the terminal as a failed command is, and
// each one counts once in xt.dispatch_errors.
func TestDispatchErrorsReported(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	m := w.EnableObservability()
	f.HandleAppLine("%label l topLevel")
	f.HandleAppLine("%action l override {<Btn1Down>: nosuch()}")
	f.HandleAppLine("%realize")
	for i := 0; i < 3; i++ {
		f.HandleAppLine("%sendClick l")
	}
	if f.EvalErrors != 0 {
		t.Fatalf("%d eval errors; terminal:\n%s", f.EvalErrors, term.String())
	}
	if got := strings.Count(term.String(), `wafe: xt: widget "l": unbound action "nosuch"`); got != 3 {
		t.Errorf("terminal reports %d unbound actions, want 3:\n%s", got, term.String())
	}
	if got := metric(m, "xt.dispatch_errors"); got != 3 {
		t.Errorf("xt.dispatch_errors = %d, want 3", got)
	}
	stats, err := w.Eval("statistics xt.dispatch_errors")
	if err != nil || strings.Count(stats, "xt.dispatch_errors") != 1 {
		t.Errorf("statistics lists xt.dispatch_errors as %q, %v; want it once", stats, err)
	}
}

// TestDrainMassErrors covers the mass-transfer failure paths: a
// transfer variable that cannot be set, and an action script that
// fails.
func TestDrainMassErrors(t *testing.T) {
	t.Run("bad-variable", func(t *testing.T) {
		w := core.NewTest()
		term := &syncBuffer{}
		f := New(w, nil, term)
		// C is an array, so setting the scalar C must fail.
		if _, err := w.Eval("set C(1) x"); err != nil {
			t.Fatal(err)
		}
		f.HandleAppLine("%setCommunicationVariable C 4 {echo never}")
		echoed := 0
		w.Interp.Stdout = func(string) { echoed++ }
		f.FeedMass("abcdefgh")
		if !strings.Contains(term.String(), "mass transfer variable") {
			t.Errorf("terminal = %q", term.String())
		}
		if echoed != 0 {
			t.Errorf("action ran despite variable error (%d times)", echoed)
		}
	})
	t.Run("failing-action", func(t *testing.T) {
		w := core.NewTest()
		term := &syncBuffer{}
		f := New(w, nil, term)
		m := w.EnableObservability()
		f.HandleAppLine("%setCommunicationVariable C 4 {definitelyNotACommand}")
		f.FeedMass("abcdefgh")
		if n := strings.Count(term.String(), "mass transfer action"); n != 2 {
			t.Errorf("action errors reported %d times, want 2 (terminal %q)", n, term.String())
		}
		// The transfer itself still completed (variable was set) and
		// both chunks are accounted.
		if v, err := w.Interp.GetGlobalVar("C"); err != nil || v != "efgh" {
			t.Errorf("C = %q, %v", v, err)
		}
		if got := metric(m, "frontend.mass_transfers"); got != 2 {
			t.Errorf("mass_transfers = %d, want 2", got)
		}
		if got := metric(m, "frontend.mass_bytes"); got != 8 {
			t.Errorf("mass_bytes = %d, want 8", got)
		}
	})
}

// TestMassBytesBeforeArm: the data channel and the command pipe are
// independent inputs, so the payload can arrive before the
// setCommunicationVariable command that arms the transfer. The
// buffered bytes must count toward the transfer, not be discarded.
func TestMassBytesBeforeArm(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, nil, term)
	f.FeedMass("0123456789")
	f.HandleAppLine("%setCommunicationVariable C 10 {echo got-mass}")
	if v, err := w.Interp.GetGlobalVar("C"); err != nil || v != "0123456789" {
		t.Errorf("C = %q, %v (terminal %q)", v, err, term.String())
	}
}

// TestStatisticsAndTraceOverPipe is the observability integration
// test: a backend enables metrics and tracing over the pipe, exactly
// as the paper's debug mode, and reads the statistics list back.
func TestStatisticsAndTraceOverPipe(t *testing.T) {
	f, backendOut, backendIn, term, cleanup := newPipedFrontend(t)
	defer cleanup()
	stop := run(t, f)
	defer stop()

	// Enable observability first so subsequent lines are counted.
	send(backendOut, "%statistics\n%echo obs-on\n")
	if got := readLine(t, backendIn); got != "obs-on" {
		t.Fatalf("handshake = %q", got)
	}

	// Build a UI and exercise the stack: repeated evals populate the
	// script cache, a click dispatches events and fires a callback.
	send(backendOut, "%command hello topLevel callback {echo pressed}\n")
	send(backendOut, "%realize\n")
	for i := 0; i < 5; i++ {
		send(backendOut, "%set n 1\n")
	}
	send(backendOut, "%echo built\n")
	if got := readLine(t, backendIn); got != "built" {
		t.Fatalf("build = %q", got)
	}
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
		t.Fatalf("callback = %q", got)
	}

	// The backend reads the statistics list over the pipe.
	send(backendOut, "%echo [statistics]\n")
	statsLine := readLine(t, backendIn)
	fields, err := tcl.ParseList(statsLine)
	if err != nil {
		t.Fatalf("statistics is not a Tcl list: %v (%q)", err, statsLine)
	}
	if len(fields)%2 != 0 {
		t.Fatalf("statistics has odd length %d", len(fields))
	}
	stats := make(map[string]string, len(fields)/2)
	for i := 0; i+1 < len(fields); i += 2 {
		stats[fields[i]] = fields[i+1]
	}
	positive := []string{
		"tcl.evals",
		"tcl.script_cache.hits",
		"tcl.script_cache.misses",
		"tcl.eval_latency.count",
		"tcl.dispatch.echo",
		"xt.events_dispatched",
		"xt.dispatch_latency.count",
		"xt.callbacks_fired",
		"xproto.events_queued",
		"frontend.command_lines",
		"frontend.line_latency.count",
	}
	for _, name := range positive {
		v, ok := stats[name]
		if !ok {
			t.Errorf("statistics misses %s", name)
			continue
		}
		if v == "0" || strings.HasPrefix(v, "-") {
			t.Errorf("%s = %s, want > 0", name, v)
		}
	}

	// traceOn: command lines and fired callbacks echo to the terminal.
	send(backendOut, "%traceOn\n")
	send(backendOut, "%echo traced\n")
	if got := readLine(t, backendIn); got != "traced" {
		t.Fatalf("traced ack = %q", got)
	}
	post(t, f, func() {
		wid := f.W.App.WidgetByName("hello")
		d := wid.Display()
		d.InjectButtonPress(1)
		d.InjectButtonRelease(1)
		f.W.App.Pump()
	})
	if got := readLine(t, backendIn); got != "pressed" {
		t.Fatalf("traced callback = %q", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		out := term.String()
		if strings.Contains(out, "wafe: trace cmd: %echo traced") &&
			strings.Contains(out, "wafe: trace callback: hello: echo pressed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace output missing, terminal = %q", out)
		}
		time.Sleep(time.Millisecond)
	}

	// traceOff stops the echo.
	send(backendOut, "%traceOff\n%echo quiet\n")
	if got := readLine(t, backendIn); got != "quiet" {
		t.Fatalf("quiet ack = %q", got)
	}
	before := strings.Count(term.String(), "wafe: trace")
	send(backendOut, "%echo untraced\n")
	if got := readLine(t, backendIn); got != "untraced" {
		t.Fatalf("untraced ack = %q", got)
	}
	post(t, f, func() {})
	if after := strings.Count(term.String(), "wafe: trace"); after != before {
		t.Errorf("trace lines after traceOff: %d -> %d", before, after)
	}

	// The metricsDump command returns the single-line JSON document.
	send(backendOut, "%echo [metricsDump]\n")
	dump := readLine(t, backendIn)
	if !strings.HasPrefix(dump, "{") || !strings.Contains(dump, `"tcl.evals"`) || !strings.Contains(dump, `"spans"`) {
		t.Errorf("metricsDump = %.120q", dump)
	}
}
