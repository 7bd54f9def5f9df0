package main

import (
	"fmt"
	"strconv"
	"strings"
)

// This file generates every input the benchmark sends to wafe. Inputs
// depend only on the seed; wafe sees nothing but the generated lines
// and payloads.

// rng is SplitMix64: small, fast and fixed, so a seed names the same
// inputs on every Go version.
type rng struct{ s uint64 }

// newRNG returns the generator for one input stream of a seed; distinct
// streams of the same seed are independent.
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed) ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// word returns n seeded lowercase letters and digits.
func (r *rng) word(n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.intn(len(alphabet))]
	}
	return string(b)
}

// setupFence ends every set-up: its reply carries the widget count.
const setupFence = "%echo S0 [llength [widgetList]]\n"

// --- dialogue ---------------------------------------------------------------

// dialogueSetup is the paper's prime-factors tree (Figure 5).
var dialogueSetup = []string{
	"%form top topLevel",
	"%asciiText input top editType edit width 200",
	"%action input override {<Key>Return: exec(echo [gV input string])}",
	"%label result top label {} width 200 fromVert input",
	"%command quit top fromVert result callback quit",
	"%label info top fromVert result fromHoriz quit label {} borderWidth 0 width 150",
	"%realize",
}

type dialogueGen struct {
	r   *rng
	seq int
}

func newDialogueGen(seed int64) *dialogueGen { return &dialogueGen{r: newRNG(seed, 1)} }

// next returns the next op: a seeded 3-7 digit n, typed into the input
// field followed by Return.
func (g *dialogueGen) next() (seq, n int, keys string) {
	g.seq++
	lo := 100
	for d := 3 + g.r.intn(5); d > 3; d-- {
		lo *= 10
	}
	n = lo + g.r.intn(9*lo)
	return g.seq, n, fmt.Sprintf("%%sendKeys input \"%d\\r\"\n", n)
}

// dialogueAnswer is the backend's reply to n: the result and info labels,
// clearing the input, and a fence that reads the result label back.
func dialogueAnswer(seq, n int) (lines, fence string) {
	fs := primeFactors(n)
	prod := strings.Join(fs, "*")
	lines = fmt.Sprintf("%%sV result label {%s}\n%%sV info label {%d has %d prime factors}; sV input string {}; echo F%d [gV result label]\n",
		prod, n, len(fs), seq)
	return lines, fmt.Sprintf("F%d %s", seq, prod)
}

func primeFactors(n int) []string {
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

// --- stream -----------------------------------------------------------------

const (
	streamConns = 2  // serve-mode connections, one per CPU of the reference machine
	batchLines  = 64 // command lines per fenced batch
)

// streamSetup builds one monitor session: a status label, bar graph,
// line graph, strip chart, a 20-item list, and the tick proc that runs
// a few exprs and updates two widgets.
func streamSetup() []string {
	items := make([]string, 20)
	for i := range items {
		items[i] = fmt.Sprintf("item%02d", i)
	}
	return []string{
		"%form top topLevel",
		"%label status top label {starting} width 300",
		"%barGraph bars top fromVert status width 240 height 80 data {0 0 0 0 0 0 0 0} labels {a b c d e f g h}",
		"%lineGraph hist top fromVert bars width 240 height 60 gridLines 2",
		"%stripChart chart top fromVert hist width 240 height 40",
		`%list items top fromVert chart list "` + strings.Join(items, `\n`) + `"`,
		"%realize",
		"%set acc 0",
		`%proc tick {a b} {global acc; set acc [expr {($acc * 31 + $a * 7 + $b) % 1000003}]; set s [expr {$a + $b}]; sV hist data "$a $b $s [expr {$s / 2}]"; sV status label "tick $a $b = $acc"}`,
	}
}

// streamGen generates one session's lines and models the state its
// fences read back: the tick digest and the status label.
type streamGen struct {
	r      *rng
	acc    int64
	status string
}

func newStreamGen(seed int64, conn int) *streamGen {
	return &streamGen{r: newRNG(seed, uint64(10+conn)), status: "starting"}
}

// line returns the next command line, without its newline: a tick, or a
// direct update with literal values.
func (g *streamGen) line() string {
	r := g.r
	var b strings.Builder
	switch k := r.intn(100); {
	case k < 40:
		a, c := r.intn(100000), r.intn(100000)
		g.acc = (g.acc*31 + int64(a)*7 + int64(c)) % 1000003
		g.status = fmt.Sprintf("tick %d %d = %d", a, c, g.acc)
		return fmt.Sprintf("%%tick %d %d", a, c)
	case k < 60:
		return fmt.Sprintf("%%stripChartSample chart %d.%03d", r.intn(1000), r.intn(1000))
	case k < 75:
		b.WriteString("%sV bars data {")
		for i := 0; i < 8; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(r.intn(1000)))
		}
	case k < 90:
		g.status = fmt.Sprintf("load %d.%02d users %d", r.intn(100), r.intn(100), r.intn(10000))
		return "%sV status label {" + g.status + "}"
	default:
		b.WriteString("%listChange items {")
		for i := 0; i < 20; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "n%05d", r.intn(100000))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// fence returns a batch's fence line and the reply the model predicts.
func (g *streamGen) fence(seq int) (line, want string) {
	return fmt.Sprintf("%%echo B%d $acc [gV status label]", seq), fmt.Sprintf("B%d %d %s", seq, g.acc, g.status)
}

// --- bulk -------------------------------------------------------------------

const (
	massSize    = 100000 // bytes per payload, the paper's C5 size
	rebuildKids = 40     // form children per rebuild, besides the list
	listItems   = 500
)

// bulkSetup arms the mass channel once: re-arming per transfer lets a
// payload fire the previous arming's script.
var bulkSetup = []string{
	"%form top topLevel",
	"%asciiText text top editType edit width 400 height 200",
	"%label status top fromVert text label {idle} width 400",
	"%realize",
	"%setCommunicationVariable C " + strconv.Itoa(massSize) + " {sV text string $C; echo M[string range $C 0 8] [string length $C]}",
}

type bulkGen struct {
	r      *rng
	bodies [][]byte
}

func newBulkGen(seed int64) *bulkGen {
	br := newRNG(seed, 3)
	g := &bulkGen{r: newRNG(seed, 2)}
	for i := 0; i < 8; i++ {
		b := make([]byte, massSize)
		for j := range b {
			b[j] = byte(' ' + br.intn(95))
		}
		g.bodies = append(g.bodies, b)
	}
	return g
}

// payload returns transfer seq in buf: a 9-byte tag followed by one of
// the seeded printable bodies, so no two payloads are equal. want is the
// reply of the armed script.
func (g *bulkGen) payload(seq int, buf []byte) (p []byte, want string) {
	tag := fmt.Sprintf("P%08d", seq)
	p = append(append(buf[:0], tag...), g.bodies[g.r.intn(len(g.bodies))][len(tag):]...)
	return p, "M" + tag + " " + strconv.Itoa(massSize)
}

// rebuild returns the line that creates rebuild seq's popup - a
// transientShell holding a form of 40 label/command/toggle/asciiText
// children chained by fromVert plus a 500-item list - pops it up and
// fences with the form's child count, and the reply it must produce.
func (g *bulkGen) rebuild(seq int) (line, want string) {
	kinds := [...]string{"label", "command", "toggle", "asciiText"}
	var b strings.Builder
	b.WriteString("%transientShell pop top; form pf pop")
	for i := 0; i < rebuildKids; i++ {
		kind := kinds[i%len(kinds)]
		fmt.Fprintf(&b, "; %s w%d pf", kind, i)
		if i > 0 {
			fmt.Fprintf(&b, " fromVert w%d", i-1)
		}
		res := "label"
		if kind == "asciiText" {
			res = "string"
		}
		fmt.Fprintf(&b, " %s {%s %d}", res, g.r.word(8), seq)
	}
	fmt.Fprintf(&b, `; list wl pf fromVert w%d list "`, rebuildKids-1)
	for j := 0; j < listItems; j++ {
		if j > 0 {
			b.WriteString(`\n`)
		}
		b.WriteString(g.r.word(6))
	}
	fmt.Fprintf(&b, "\"; popup pop; echo R%d [llength [widgetChildren pf]]\n", seq)
	return b.String(), fmt.Sprintf("R%d %d", seq, rebuildKids+1)
}

// destroy returns the line that destroys rebuild seq's popup and fences
// with the app's widget count, which must be back at its set-up value.
func destroy(seq int, widgets string) (line, want string) {
	return fmt.Sprintf("%%destroyWidget pop; echo D%d [llength [widgetList]]\n", seq), fmt.Sprintf("D%d %s", seq, widgets)
}
