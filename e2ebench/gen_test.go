package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/frontend"
)

// inputs renders a prefix of every workload's inputs for a seed.
func inputs(seed int64) []byte {
	var b bytes.Buffer
	d := newDialogueGen(seed)
	for i := 0; i < 50; i++ {
		seq, n, keys := d.next()
		lines, fence := dialogueAnswer(seq, n)
		b.WriteString(keys + lines + fence)
	}
	for conn := 0; conn < streamConns; conn++ {
		g := newStreamGen(seed, conn)
		for i := 0; i < 500; i++ {
			b.WriteString(g.line())
		}
		line, want := g.fence(1)
		b.WriteString(line + want)
	}
	g := newBulkGen(seed)
	var p []byte
	for seq := 1; seq <= 3; seq++ {
		var want string
		p, want = g.payload(seq, p)
		b.Write(p)
		line, fence := g.rebuild(seq)
		b.WriteString(want + line + fence)
	}
	return b.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	if !bytes.Equal(inputs(1), inputs(1)) {
		t.Fatal("one seed produced different inputs")
	}
	if bytes.Equal(inputs(1), inputs(2)) {
		t.Fatal("two seeds produced the same inputs")
	}
}

func TestStreamLinesMostlyDistinct(t *testing.T) {
	g := newStreamGen(1, 0)
	seen := map[string]bool{}
	const n = 20000
	for i := 0; i < n; i++ {
		seen[g.line()] = true
	}
	if len(seen) < n*9/10 {
		t.Fatalf("%d of %d stream lines distinct, want at least 90%%", len(seen), n)
	}
}

func TestPrimeFactors(t *testing.T) {
	for n, want := range map[int]string{360: "2*2*2*3*3*5", 97: "97", 9999991: "9999991", 1000000: "2*2*2*2*2*2*5*5*5*5*5*5"} {
		if got := strings.Join(primeFactors(n), "*"); got != want {
			t.Errorf("primeFactors(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestPayload(t *testing.T) {
	p, want := newBulkGen(5).payload(42, nil)
	if len(p) != massSize || !bytes.HasPrefix(p, []byte("P00000042")) || want != "MP00000042 100000" {
		t.Fatalf("payload: %d bytes, prefix %q, want %q", len(p), p[:9], want)
	}
	for _, c := range p {
		if c < ' ' || c > '~' {
			t.Fatalf("payload byte %q is not printable ASCII", c)
		}
	}
}

// session runs protocol lines through an in-process frontend and
// collects what wafe would send back.
type session struct {
	t       *testing.T
	s       *frontend.Session
	replies []string
}

func newTestSession(t *testing.T) *session {
	s, err := frontend.NewSession(frontend.SessionConfig{Set: core.SetAthena, Terminal: io.Discard, PrivateDisplay: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := &session{t: t, s: s}
	s.W.Interp.Stdout = func(line string) { ts.replies = append(ts.replies, line) }
	return ts
}

// send hands each line to HandleAppLine and returns the replies.
func (ts *session) send(lines string) []string {
	ts.t.Helper()
	ts.replies = nil
	for _, l := range strings.Split(strings.TrimSuffix(lines, "\n"), "\n") {
		ts.s.F.HandleAppLine(l)
	}
	if n := ts.s.F.EvalErrors; n > 0 {
		ts.t.Fatalf("%d lines failed; last of %q", n, lines)
	}
	return ts.replies
}

func (ts *session) expect(lines string, want ...string) {
	ts.t.Helper()
	if got := ts.send(lines); fmt.Sprint(got) != fmt.Sprint(want) {
		ts.t.Fatalf("replies %q, want %q", got, want)
	}
}

// The generated lines do what the load generator expects of them.
func TestWorkloadsInProcess(t *testing.T) {
	t.Run("dialogue", func(t *testing.T) {
		ts := newTestSession(t)
		ts.send(strings.Join(dialogueSetup, "\n") + "\n" + setupFence)
		g := newDialogueGen(1)
		for i := 0; i < 20; i++ {
			seq, n, keys := g.next()
			ts.expect(keys, fmt.Sprint(n))
			answer, fence := dialogueAnswer(seq, n)
			ts.expect(answer, fence)
		}
	})
	t.Run("stream", func(t *testing.T) {
		ts := newTestSession(t)
		ts.send(strings.Join(streamSetup(), "\n") + "\n" + setupFence)
		g := newStreamGen(1, 0)
		for seq := 1; seq <= 10; seq++ {
			var b strings.Builder
			for i := 0; i < batchLines; i++ {
				b.WriteString(g.line() + "\n")
			}
			line, want := g.fence(seq)
			ts.expect(b.String()+line, want)
		}
	})
	t.Run("bulk", func(t *testing.T) {
		ts := newTestSession(t)
		widgets := strings.TrimPrefix(ts.send(strings.Join(bulkSetup, "\n") + "\n" + setupFence)[0], "S0 ")
		g := newBulkGen(1)
		var p []byte
		for seq := 1; seq <= 3; seq++ {
			var want string
			p, want = g.payload(seq, p)
			ts.replies = nil
			ts.s.F.FeedMass(string(p))
			if len(ts.replies) != 1 || ts.replies[0] != want {
				t.Fatalf("transfer %d: replies %q, want %q", seq, ts.replies, want)
			}
			create, fence := g.rebuild(seq)
			ts.expect(create, fence)
			del, fence := destroy(seq, widgets)
			ts.expect(del, fence)
		}
	})
}
