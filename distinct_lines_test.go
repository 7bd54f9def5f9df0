package wafe

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/frontend"
)

// This file drives the frontend with protocol lines that never repeat,
// as a backend that builds its lines from data does. The line shapes
// are those of e2ebench's dialogue and stream workloads
// (e2ebench/gen.go); here every line carries a fresh number, so the
// interpreter never sees a source twice.

// distinctDialogue is the paper's prime-factors dialogue in process: a
// round trip types a fresh number into the input field, whose Return
// translation echoes it, and answers with the two result lines.
type distinctDialogue struct {
	f       *frontend.Frontend
	replies int
	seq     int
	// ops holds pre-built round trips, so building them is not measured.
	ops [][3]string
}

func newDistinctDialogue(tb testing.TB) *distinctDialogue {
	tb.Helper()
	d := &distinctDialogue{}
	w := core.NewTest()
	d.f = frontend.New(w, nil, &strings.Builder{})
	w.Interp.Stdout = func(string) { d.replies++ }
	for _, line := range []string{
		"%form top topLevel",
		"%asciiText input top editType edit width 200",
		"%action input override {<Key>Return: exec(echo [gV input string])}",
		"%label result top label {} width 200 fromVert input",
		"%command quit top fromVert result callback quit",
		"%label info top fromVert result fromHoriz quit label {} borderWidth 0 width 150",
		"%realize",
	} {
		d.f.HandleAppLine(line)
	}
	if d.f.EvalErrors != 0 {
		tb.Fatalf("dialogue set-up: %d eval errors", d.f.EvalErrors)
	}
	return d
}

// build prepares the next k round trips. Each types a number of 6 or 7
// digits that no earlier round trip used: 7919 is prime to the range,
// so the numbers repeat only after 9.9 million round trips.
func (d *distinctDialogue) build(k int) {
	d.ops = d.ops[:0]
	for ; k > 0; k-- {
		d.seq++
		n := 100000 + d.seq*7919%9900000
		fs := distinctPrimeFactors(n)
		d.ops = append(d.ops, [3]string{
			fmt.Sprintf("%%sendKeys input \"%d\\r\"", n),
			fmt.Sprintf("%%sV result label {%s}", strings.Join(fs, "*")),
			fmt.Sprintf("%%sV info label {%d has %d prime factors}; sV input string {}; echo F%d [gV result label]",
				n, len(fs), d.seq),
		})
	}
}

// roundTrip runs the next pre-built round trip, settling the screen
// after each line.
func (d *distinctDialogue) roundTrip() {
	op := &d.ops[0]
	d.ops = d.ops[1:]
	for _, line := range op {
		d.f.HandleAppLine(line)
		d.f.W.App.Pump()
	}
}

func distinctPrimeFactors(n int) []string {
	var out []string
	for d := 2; d*d <= n; d++ {
		for n%d == 0 {
			out = append(out, strconv.Itoa(d))
			n /= d
		}
	}
	if n > 1 {
		out = append(out, strconv.Itoa(n))
	}
	return out
}

// distinctStream is one monitor session of the stream workload: a tick
// proc call, a strip-chart sample, a bar-graph update, a status label
// or a list change, in e2ebench's proportions, each with fresh values.
type distinctStream struct {
	f *frontend.Frontend
	i int
	// lines holds pre-built lines, so building them is not measured.
	lines []string
}

func newDistinctStream(tb testing.TB) *distinctStream {
	tb.Helper()
	w := core.NewTest()
	w.Interp.Stdout = func(string) {}
	s := &distinctStream{f: frontend.New(w, nil, &strings.Builder{})}
	items := make([]string, 20)
	for i := range items {
		items[i] = fmt.Sprintf("item%02d", i)
	}
	for _, line := range []string{
		"%form top topLevel",
		"%label status top label {starting} width 300",
		"%barGraph bars top fromVert status width 240 height 80 data {0 0 0 0 0 0 0 0} labels {a b c d e f g h}",
		"%lineGraph hist top fromVert bars width 240 height 60 gridLines 2",
		"%stripChart chart top fromVert hist width 240 height 40",
		`%list items top fromVert chart list "` + strings.Join(items, `\n`) + `"`,
		"%realize",
		"%set acc 0",
		`%proc tick {a b} {global acc; set acc [expr {($acc * 31 + $a * 7 + $b) % 1000003}]; set s [expr {$a + $b}]; sV hist data "$a $b $s [expr {$s / 2}]"; sV status label "tick $a $b = $acc"}`,
	} {
		s.f.HandleAppLine(line)
	}
	if s.f.EvalErrors != 0 {
		tb.Fatalf("stream set-up: %d eval errors", s.f.EvalErrors)
	}
	return s
}

// next returns the next line; the op number i makes every line new.
func (s *distinctStream) next() string {
	s.i++
	i := s.i
	switch k := i % 20; {
	case k < 8:
		return fmt.Sprintf("%%tick %d %d", i, i*7%100000)
	case k < 12:
		return fmt.Sprintf("%%stripChartSample chart %d.%03d", i/1000%1000, i%1000)
	case k < 15:
		var b strings.Builder
		b.WriteString("%sV bars data {")
		for j := 0; j < 8; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(distinctDigits(i, j, 1000)))
		}
		b.WriteByte('}')
		return b.String()
	case k < 18:
		return fmt.Sprintf("%%sV status label {load %d.%02d users %d}", i/100%100, i%100, i)
	default:
		var b strings.Builder
		b.WriteString("%listChange items {")
		for j := 0; j < 20; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "n%05d", distinctDigits(i, j, 100000))
		}
		b.WriteByte('}')
		return b.String()
	}
}

// distinctDigits returns value j of op i, each below base: the first
// values spell i in that base, so no two ops share a value list.
func distinctDigits(i, j, base int) int {
	if j < 3 {
		for ; j > 0; j-- {
			i /= base
		}
		return i % base
	}
	return (i*31 + j*17) % base
}

// build prepares the next k lines.
func (s *distinctStream) build(k int) {
	s.lines = s.lines[:0]
	for ; k > 0; k-- {
		s.lines = append(s.lines, s.next())
	}
}

// line runs the next pre-built line and settles the screen.
func (s *distinctStream) line() {
	s.f.HandleAppLine(s.lines[0])
	s.f.W.App.Pump()
	s.lines = s.lines[1:]
}

// TestDistinctLineAllocs gates what a line the interpreter sees for the
// first time costs in allocations: a dialogue round trip of new lines,
// and a new stream line averaged over the workload's mix.
func TestDistinctLineAllocs(t *testing.T) {
	d := newDistinctDialogue(t)
	d.build(201)
	if got := testing.AllocsPerRun(200, d.roundTrip); got > 40 {
		t.Errorf("dialogue round trip of new lines: %.1f allocations, want at most 40", got)
	}
	if d.f.EvalErrors != 0 || d.replies == 0 {
		t.Fatalf("dialogue: %d eval errors, %d replies", d.f.EvalErrors, d.replies)
	}
	s := newDistinctStream(t)
	s.build(401)
	if got := testing.AllocsPerRun(400, s.line); got > 15 {
		t.Errorf("new stream line: %.1f allocations, want at most 15", got)
	}
	if s.f.EvalErrors != 0 {
		t.Fatalf("stream: %d eval errors", s.f.EvalErrors)
	}
}
