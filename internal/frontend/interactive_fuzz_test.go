package frontend

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/obs"
	"wafe/internal/tcl"
)

// recordingSession is a session whose every command, unknown ones
// included, records its words and returns an empty result, so fuzzed
// input runs no real command, writes no file and starts no process.
type recordingSession struct {
	f *Frontend
	m *obs.Metrics
	// calls holds the words of each command run, in order; each
	// prompt appends the number of calls so far to marks.
	calls []string
	marks []int
}

func newRecordingSession() *recordingSession {
	w := core.NewTest()
	r := &recordingSession{f: New(w, &Options{Prefix: '%', LineLimit: 64}, io.Discard), m: w.EnableObservability()}
	record := func(_ *tcl.Interp, argv []string) (string, error) {
		r.calls = append(r.calls, tcl.FormatList(argv))
		return "", nil
	}
	for _, name := range w.Interp.CommandNames() {
		w.Interp.RegisterCommand(name, record)
	}
	w.Interp.Unknown = record
	w.Interp.Stdout = func(string) {}
	return r
}

// interactiveChunks is the model of interactive continuation: each
// line and its newline join the pending text, which is a chunk as soon
// as tcl.CommandComplete says so; the lines after the last chunk are
// the unfinished remainder.
func interactiveChunks(lines []string) (chunks []string, rest string) {
	var pending strings.Builder
	for _, line := range lines {
		pending.WriteString(line)
		pending.WriteByte('\n')
		if tcl.CommandComplete(pending.String()) {
			chunks = append(chunks, pending.String())
			pending.Reset()
		}
	}
	return chunks, pending.String()
}

// FuzzInteractive runs the input's lines through RunInteractive and
// through HandleAppLine. RunInteractive must evaluate exactly the
// chunks of interactiveChunks, in order, each as soon as it is
// complete: the commands run between two prompts are those the chunk
// runs on its own, and nothing runs for the unfinished remainder.
// Every line HandleAppLine gets counts once, as a command, passed or
// overlong line. Seeds in testdata/fuzz/FuzzInteractive: the demos'
// paragraphs and the continuation rows of the TestBalanced tests.
func FuzzInteractive(f *testing.F) {
	r := newRecordingSession()
	f.Fuzz(func(t *testing.T, input string) {
		var lines []string
		sc := bufio.NewScanner(strings.NewReader(input))
		for sc.Scan() {
			if len(sc.Text()) > 4096 {
				t.Skip("a line longer than RunInteractive reads")
			}
			lines = append(lines, sc.Text())
		}
		if sc.Err() != nil {
			t.Skip("a line longer than the scanner takes")
		}

		// A failed command sets errorInfo; each chunk starts with it
		// empty, so that it runs as it does on its own.
		reset := func() { _ = r.f.W.Interp.SetGlobalVar("errorInfo", "") }
		r.calls, r.marks = nil, nil
		prompt := func() {
			r.marks = append(r.marks, len(r.calls))
			reset()
		}
		if err := r.f.RunInteractive(strings.NewReader(input), prompt); err != nil {
			t.Fatalf("RunInteractive: %v", err)
		}
		got := r.calls
		chunks, rest := interactiveChunks(lines)
		if len(r.marks) != len(chunks)+1 {
			t.Fatalf("%d prompts for %d chunks (remainder %q)", len(r.marks), len(chunks), rest)
		}
		if n := len(got) - r.marks[len(chunks)]; n != 0 {
			t.Fatalf("the unfinished remainder %q ran %d commands", rest, n)
		}
		for i, chunk := range chunks {
			r.calls = nil
			reset()
			if strings.TrimSpace(chunk) != "" {
				_, _ = r.f.W.Eval(chunk)
			}
			want := fmt.Sprint(r.calls)
			if ran := fmt.Sprint(got[r.marks[i]:r.marks[i+1]]); ran != want {
				t.Fatalf("chunk %d %q ran %s, on its own %s", i, chunk, ran, want)
			}
		}

		classes := func() int64 {
			return r.m.Frontend.CommandLines.Load() + r.m.Frontend.PassedLines.Load() + r.m.Frontend.OverlongLines.Load()
		}
		for _, line := range lines {
			before := classes()
			r.f.HandleAppLine(line)
			if n := classes() - before; n != 1 {
				t.Fatalf("line %q counted in %d classes, want 1", line, n)
			}
		}
	})
}
