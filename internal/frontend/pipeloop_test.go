package frontend

import (
	"bufio"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"wafe/internal/core"
	"wafe/internal/frontend/faultio"
	"wafe/internal/tcl"
)

// TestOverlongLineResync: a line exceeding the reader budget must be
// reported and skipped, with the pipe loop resynchronizing at the next
// newline. The bufio.Scanner-based loop this replaces hit ErrTooLong
// instead and silently quit, dropping every later command.
func TestOverlongLineResync(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: 100}, term)
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { outW.Close(); outR.Close(); inW.Close(); inR.Close() }()
	f.AttachApp(outR, inW)
	stop := run(t, f)
	defer stop()

	send(outW, strings.Repeat("x", 10_000)+"\n")
	send(outW, "%echo alive\n")

	br := bufio.NewReader(inR)
	if got := readLine(t, br); got != "alive" {
		t.Errorf("after overlong line got %q, want \"alive\"", got)
	}
	var overlong int
	post(t, f, func() { overlong = f.OverlongLines })
	if overlong != 1 {
		t.Errorf("OverlongLines = %d, want 1", overlong)
	}
	if !strings.Contains(term.String(), "exceeds 100 bytes") {
		t.Errorf("overlong line not reported; terminal:\n%s", term.String())
	}
}

// TestReadErrorReported: a failing command pipe is an error, not a
// clean EOF — it must be reported on the terminal and counted. The
// scanner loop swallowed sc.Err() and quit as if the backend had
// exited normally.
func TestReadErrorReported(t *testing.T) {
	w := core.NewTest()
	m := w.EnableObservability()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	appIn := &syncBuffer{}
	r := &faultio.FlakyReader{
		R:   strings.NewReader("%echo before\n%echo never-delivered\n"),
		N:   len("%echo before\n"),
		Err: errors.New("injected pipe failure"),
	}
	f.AttachApp(r, appIn)
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not quit on the read error")
	}
	// The line before the failure point was still handled.
	if !strings.Contains(appIn.String(), "before") {
		t.Errorf("line before the failure lost; backend stdin: %q", appIn.String())
	}
	if strings.Contains(appIn.String(), "never-delivered") {
		t.Errorf("line after the failure must not arrive; backend stdin: %q", appIn.String())
	}
	if f.ReadErrors != 1 {
		t.Errorf("ReadErrors = %d, want 1", f.ReadErrors)
	}
	if got := m.Frontend.ReadErrors.Load(); got != 1 {
		t.Errorf("frontend.read_errors = %d, want 1", got)
	}
	if !strings.Contains(term.String(), "read error on command pipe") ||
		!strings.Contains(term.String(), "injected pipe failure") {
		t.Errorf("read error not reported; terminal:\n%s", term.String())
	}
}

// TestReadCommandLinesFragmented: line assembly must be independent of
// how the kernel fragments reads.
func TestReadCommandLinesFragmented(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	appIn := &syncBuffer{}
	r := &faultio.ShortReader{R: strings.NewReader("%echo one\npassthrough line\n%echo two\n"), Max: 3}
	f.AttachApp(r, appIn)
	done := make(chan int, 1)
	go func() { done <- f.W.App.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("main loop did not quit on EOF")
	}
	if got := appIn.String(); got != "one\ntwo\n" {
		t.Errorf("backend stdin = %q, want \"one\\ntwo\\n\"", got)
	}
	if !strings.Contains(term.String(), "passthrough line") {
		t.Errorf("passthrough lost; terminal:\n%s", term.String())
	}
}

// TestBalancedTrailingBackslash: a trailing backslash is a Tcl line
// continuation, so the command is incomplete — calling it complete
// made interactive mode evaluate half a command.
func TestBalancedTrailingBackslash(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{`set x \`, false},      // continuation: wait for more
		{`set x \\`, true},      // escaped backslash: complete
		{"set x \\\nabc", true}, // continuation already joined
		{`set x {a b}`, true},   //
		{`set x {a \`, false},   // open brace dominates anyway
		{`set x "a \`, false},   // open quote dominates anyway
		{`set x \;`, true},      // escaped separator: complete
	}
	for _, c := range cases {
		if got := tcl.CommandComplete(c.in + "\n"); got != c.want {
			t.Errorf("CommandComplete(%q) = %v, want %v", c.in+"\n", got, c.want)
		}
	}
}

// TestInteractiveLineContinuation: a backslash-newline split command is
// accumulated across prompts and evaluated once, whole.
func TestInteractiveLineContinuation(t *testing.T) {
	w := core.NewTest()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: DefaultLineLimit}, term)
	in := strings.NewReader("set \\\nx 5\nquit\n")
	if err := f.RunInteractive(in, nil); err != nil {
		t.Fatal(err)
	}
	if v, err := w.Eval("set x"); err != nil || v != "5" {
		t.Errorf("x = %q, %v; want \"5\" (continuation evaluated as one command)", v, err)
	}
	if strings.Contains(term.String(), "error:") {
		t.Errorf("continuation halves evaluated separately; terminal:\n%s", term.String())
	}
}
