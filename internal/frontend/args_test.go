package frontend

import (
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/tcl"
)

func TestParseArgsPrefixAndLimit(t *testing.T) {
	o, err := ParseArgs("wafe", []string{"--prefix", "@", "--linelimit", "128", "--app", "backend"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Prefix != '@' || o.LineLimit != 128 {
		t.Errorf("opts = %+v", o)
	}
	if _, err := ParseArgs("wafe", []string{"--prefix", "long"}); err == nil {
		t.Error("multi-char prefix accepted")
	}
	if _, err := ParseArgs("wafe", []string{"--app"}); err == nil {
		t.Error("--app without program accepted")
	}
	if _, err := ParseArgs("wafe", []string{"-display"}); err == nil {
		t.Error("-display without argument accepted")
	}
	if _, err := ParseArgs("wafe", []string{"-xrm"}); err == nil {
		t.Error("-xrm without argument accepted")
	}
	if _, err := ParseArgs("wafe", []string{"--resources"}); err == nil {
		t.Error("--resources without file accepted")
	}
}

func TestParseArgsFileModeBareScript(t *testing.T) {
	// "wafe --f" with the script as a later bare argument (the #! form
	// passes the script name after the option string).
	o, err := ParseArgs("wafe", []string{"--f", "/tmp/s.wafe"})
	if err != nil || o.ScriptFile != "/tmp/s.wafe" {
		t.Errorf("opts=%+v err=%v", o, err)
	}
	// Script plus backend-style extra args error out of scope: they
	// become app args, which file mode ignores.
	o, err = ParseArgs("wafe", []string{"--f", "s.wafe", "extra"})
	if err != nil || o.ScriptFile != "s.wafe" || len(o.AppArgs) != 1 {
		t.Errorf("opts=%+v err=%v", o, err)
	}
}

func TestModeString(t *testing.T) {
	if ModeInteractive.String() != "interactive" || ModeFile.String() != "file" ||
		ModeFrontend.String() != "frontend" || ModeServe.String() != "serve" ||
		Mode(9).String() != "unknown" {
		t.Error("mode strings wrong")
	}
}

func TestParseArgsServeMode(t *testing.T) {
	o, err := ParseArgs("wafe", []string{"--serve", "tcp:127.0.0.1:7012", "--max-sessions", "64"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Mode != ModeServe || o.ServeAddr != "tcp:127.0.0.1:7012" || o.MaxSessions != 64 {
		t.Errorf("opts = %+v", o)
	}
	// Serve mode composes with the observability and protocol flags.
	o, err = ParseArgs("wafe", []string{"--serve", "unix:/tmp/w.sock", "--metrics-dump", "-", "--prefix", "@"})
	if err != nil || o.Mode != ModeServe || o.MetricsDump != "-" || o.Prefix != '@' {
		t.Errorf("opts=%+v err=%v", o, err)
	}
	if _, err := ParseArgs("wafe", []string{"--serve"}); err == nil {
		t.Error("--serve without address accepted")
	}
	if _, err := ParseArgs("wafe", []string{"--serve", "noaddr"}); err == nil {
		t.Error("--serve with an unresolvable address accepted")
	}
	if _, err := ParseArgs("wafe", []string{"--max-sessions", "0"}); err == nil {
		t.Error("--max-sessions 0 accepted")
	}
	if _, err := ParseArgs("wafe", []string{"--max-sessions"}); err == nil {
		t.Error("--max-sessions without count accepted")
	}
}

func TestCustomPrefixProtocol(t *testing.T) {
	// The command prefix character is configurable (the paper: "If the
	// line received by Wafe starts with a certain character (such as
	// %)").
	w := newTestWafe(t)
	var sink strings.Builder
	f := New(w, &Options{Prefix: '@', LineLimit: 1024}, &sink)
	f.HandleAppLine("@label l topLevel")
	if w.App.WidgetByName("l") == nil {
		t.Fatal("@-prefixed command not interpreted")
	}
	f.HandleAppLine("%label notacmd topLevel")
	if w.App.WidgetByName("notacmd") != nil {
		t.Error("%-line interpreted despite @ prefix")
	}
	if !strings.Contains(sink.String(), "%label notacmd") {
		t.Error("non-command line not passed through")
	}
}

func TestBalancedHelper(t *testing.T) {
	cases := map[string]bool{
		"set x 1":         true,
		"proc f {} {":     false,
		"proc f {} {\n} ": true,
		"set x \\{":       true, // escaped brace
		"if {a} {b} ":     true,
		"[llength {a b}]": true,
		"[open":           false,
	}
	for in, want := range cases {
		if got := tcl.CommandComplete(in + "\n"); got != want {
			t.Errorf("CommandComplete(%q) = %v, want %v", in+"\n", got, want)
		}
	}
}

func TestInteractiveContinuation(t *testing.T) {
	w := newTestWafe(t)
	var sink strings.Builder
	f := New(w, nil, &sink)
	w.Interp.Stdout = func(line string) { sink.WriteString(line + "\n") }
	input := `proc greet {who} {
	return "hi $who"
}
echo [greet world]
`
	if err := f.RunInteractive(strings.NewReader(input), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sink.String(), "hi world") {
		t.Errorf("continuation failed: %q", sink.String())
	}
}

func TestInteractiveErrorReported(t *testing.T) {
	w := newTestWafe(t)
	var sink strings.Builder
	f := New(w, nil, &sink)
	if err := f.RunInteractive(strings.NewReader("nosuchcmd\n"), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sink.String(), "error:") {
		t.Errorf("error not reported: %q", sink.String())
	}
}

func TestInteractiveResultEchoed(t *testing.T) {
	w := newTestWafe(t)
	var sink strings.Builder
	f := New(w, nil, &sink)
	if err := f.RunInteractive(strings.NewReader("expr 6*7\n"), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sink.String(), "42") {
		t.Errorf("result not echoed: %q", sink.String())
	}
}

func TestFeedMassWithoutConfiguration(t *testing.T) {
	w := newTestWafe(t)
	var sink strings.Builder
	f := New(w, nil, &sink)
	f.FeedMass("data with no setCommunicationVariable") // must not panic
	if f.massLimit != 0 {
		t.Error("unexpected mass config")
	}
}

func TestMassTransferMultipleRounds(t *testing.T) {
	w := newTestWafe(t)
	var sink strings.Builder
	f := New(w, nil, &sink)
	f.HandleAppLine("%set total {}")
	f.HandleAppLine("%setCommunicationVariable C 4 {append total $C}")
	f.FeedMass("aaaabbbbcc") // two complete chunks + remainder
	if got, _ := w.Interp.GetGlobalVar("total"); got != "aaaabbbb" {
		t.Errorf("total = %q", got)
	}
	f.FeedMass("cc") // completes the third chunk
	if got, _ := w.Interp.GetGlobalVar("total"); got != "aaaabbbbcccc" {
		t.Errorf("total = %q", got)
	}
}

func TestSetCommunicationVariableErrors(t *testing.T) {
	w := newTestWafe(t)
	var sink strings.Builder
	f := New(w, nil, &sink)
	f.HandleAppLine("%setCommunicationVariable C zero {x}")
	if !strings.Contains(sink.String(), "error in command") {
		t.Errorf("bad byte count accepted: %q", sink.String())
	}
}

// newTestWafe builds a Wafe on a private display.
func newTestWafe(t *testing.T) *core.Wafe {
	t.Helper()
	return core.NewTest()
}
