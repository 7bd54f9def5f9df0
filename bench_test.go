// Package wafe holds the repository-level benchmark harness: one
// benchmark per table/figure/claim in the paper's evaluation, as
// indexed in DESIGN.md and recorded in EXPERIMENTS.md.
//
// Run with:
//
//	go test -bench=. -benchmem
package wafe

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/frontend"
	"wafe/internal/spec"
	"wafe/internal/tcl"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

func newWafe(b *testing.B) *core.Wafe {
	b.Helper()
	w := core.NewTest()
	w.Interp.Stdout = func(string) {} // discard
	return w
}

func mustEval(b *testing.B, w *core.Wafe, script string) string {
	b.Helper()
	res, err := w.Eval(script)
	if err != nil {
		b.Fatalf("Eval(%q): %v", script, err)
	}
	return res
}

func click(w *core.Wafe, name string) {
	wid := w.App.WidgetByName(name)
	d := wid.Display()
	win, _ := d.Lookup(wid.Window())
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	w.App.Pump()
}

// BenchmarkT1_PredefinedCallbacks measures one popup/popdown cycle
// through the predefined callback table (none + popdown).
func BenchmarkT1_PredefinedCallbacks(b *testing.B) {
	w := newWafe(b)
	mustEval(b, w, "command up topLevel")
	mustEval(b, w, "transientShell pop topLevel x 500 y 500")
	mustEval(b, w, "label inpop pop")
	mustEval(b, w, "realize")
	mustEval(b, w, "callback up callback none pop")
	shell := w.App.WidgetByName("pop")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		click(w, "up")
		if !shell.IsPoppedUp() {
			b.Fatal("not popped up")
		}
		_ = shell.Popdown()
	}
}

// BenchmarkT2_PercentExpansion measures the exec-action percent-code
// substitution of the paper's event table.
func BenchmarkT2_PercentExpansion(b *testing.B) {
	w := newWafe(b)
	mustEval(b, w, "label l topLevel")
	mustEval(b, w, "realize")
	wid := w.App.WidgetByName("l")
	ev := &xproto.Event{Type: xproto.KeyPress, Keycode: 198, Keysym: "w", Rune: 'w', X: 3, Y: 4, XRoot: 30, YRoot: 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.ExpandActionPercent("echo %k %a %s %x %y %X %Y %w %t", wid, ev)
		if len(s) == 0 {
			b.Fatal("empty expansion")
		}
	}
}

// BenchmarkT3_ListCallback measures a full List selection callback with
// %i/%s substitution into a Tcl script.
func BenchmarkT3_ListCallback(b *testing.B) {
	w := newWafe(b)
	mustEval(b, w, "form f topLevel")
	mustEval(b, w, `label confirmLab f label { }`)
	mustEval(b, w, `list chooseLst f fromVert confirmLab verticalList true list "alpha
beta
gamma"`)
	mustEval(b, w, `sV chooseLst callback "sV confirmLab label %s"`)
	mustEval(b, w, "realize")
	lst := w.App.WidgetByName("chooseLst")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lst.CallCallbacks("callback", xt.CallData{"i": "1", "s": "beta"})
	}
}

// BenchmarkF1_BuildAndRealizeTree measures building the paper's demo
// widget tree through the full Tcl → Wafe → Xt → Xaw → server stack.
func BenchmarkF1_BuildAndRealizeTree(b *testing.B) {
	script := `
form top%d topLevel
asciiText input%d top%d editType edit width 200
label result%d top%d label {} width 200 fromVert input%d
command quit%d top%d fromVert result%d
label info%d top%d fromVert result%d fromHoriz quit%d label {} borderWidth 0 width 150
`
	w := newWafe(b)
	mustEval(b, w, "realize")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := strings.ReplaceAll(script, "%d", fmt.Sprint(i))
		mustEval(b, w, s)
		w.App.Pump()
		// Destroy to keep the tree bounded.
		mustEval(b, w, fmt.Sprintf("destroyWidget top%d", i))
	}
}

// BenchmarkF3_XmStringConverter measures compound-string conversion
// (Figure 3).
func BenchmarkF3_XmStringConverter(b *testing.B) {
	w, err := core.New(core.Config{TestDisplay: true, Set: core.SetMotif, AppName: "mofe"})
	if err != nil {
		b.Fatal(err)
	}
	w.Interp.Stdout = func(string) {}
	if _, err := w.Eval(`mLabel l topLevel fontList "*medium*14*=ft,*bold*14*=bft"`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Eval(`sV l labelString {I'm\bft bold\ft and\rl strange}`); err != nil {
			b.Fatal(err)
		}
		w.App.Pump()
	}
}

// BenchmarkF4_FrontendRoundTrip measures one protocol round trip:
// a %-command line from the backend through the interpreter and an
// echo reply back onto the backend's stdin (in-process pipes; no fork).
// It repeats one line, so it measures the script-cache-hit path; the
// Distinct benchmarks below measure lines the interpreter sees once.
func BenchmarkF4_FrontendRoundTrip(b *testing.B) {
	w := core.NewTest()
	var sink strings.Builder
	f := frontend.New(w, nil, &sink)
	replies := 0
	w.Interp.Stdout = func(string) { replies++ }
	f.HandleAppLine("%label l topLevel")
	f.HandleAppLine("%realize")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.HandleAppLine("%echo [gV l label]")
		w.App.Pump()
	}
	if replies < b.N {
		b.Fatalf("replies = %d", replies)
	}
}

// BenchmarkF4_DistinctDialogue is F4 for the paper's prime-factors
// dialogue with every line new: one op is a round trip of e2ebench's
// dialogue shape (keystrokes echoed by a translation, then the two
// answer lines).
func BenchmarkF4_DistinctDialogue(b *testing.B) {
	d := newDistinctDialogue(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 1000 {
		b.StopTimer()
		d.build(min(1000, b.N-i))
		b.StartTimer()
		for len(d.ops) > 0 {
			d.roundTrip()
		}
	}
	if d.f.EvalErrors != 0 || d.replies < b.N {
		b.Fatalf("%d eval errors, %d replies", d.f.EvalErrors, d.replies)
	}
}

// BenchmarkF4_DistinctStream is F4 for e2ebench's stream line mix with
// every line new: one op is one line.
func BenchmarkF4_DistinctStream(b *testing.B) {
	s := newDistinctStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 1000 {
		b.StopTimer()
		s.build(min(1000, b.N-i))
		b.StartTimer()
		for len(s.lines) > 0 {
			s.line()
		}
	}
	if s.f.EvalErrors != 0 {
		b.Fatalf("%d eval errors", s.f.EvalErrors)
	}
}

// BenchmarkF4_FrontendRoundTripTraced is F4 with observability enabled
// and span tracing on: every line records a line span plus an eval
// span into the bounded ring. cmd/wafebench gates on the median of
// the per-repetition differences between this benchmark and plain F4
// (the per-line cost of enabled tracing). The echo sink is
// detached: echoing every traced line to the terminal is the verbose
// debug channel, whose cost is the terminal write itself, not the
// recording machinery this gate governs.
func BenchmarkF4_FrontendRoundTripTraced(b *testing.B) {
	w := core.NewTest()
	var sink strings.Builder
	f := frontend.New(w, nil, &sink)
	m := w.EnableObservability()
	m.Trace.SetEnabled(true)
	m.Trace.SetSink(nil)
	replies := 0
	w.Interp.Stdout = func(string) { replies++ }
	f.HandleAppLine("%label l topLevel")
	f.HandleAppLine("%realize")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.HandleAppLine("%echo [gV l label]")
		w.App.Pump()
	}
	if replies < b.N {
		b.Fatalf("replies = %d", replies)
	}
	if len(m.Trace.Spans()) == 0 {
		b.Fatal("no spans recorded")
	}
}

// BenchmarkF4_FrontendRoundTripSupervised is F4 with a live supervised
// backend attached (cat, idle): the per-line path must not pay for
// supervision, whose hooks only run when the command pipe ends.
// cmd/wafebench gates on the median of the per-repetition ratios of
// this benchmark to plain F4.
func BenchmarkF4_FrontendRoundTripSupervised(b *testing.B) {
	w := core.NewTest()
	var sink strings.Builder
	f := frontend.New(w, nil, &sink)
	sup, err := f.Supervise("cat", nil, frontend.RestartPolicy{MaxRestarts: 3})
	if err != nil {
		b.Skipf("cannot spawn cat backend: %v", err)
	}
	defer func() { _ = sup.Shutdown() }()
	replies := 0
	w.Interp.Stdout = func(string) { replies++ }
	f.HandleAppLine("%label l topLevel")
	f.HandleAppLine("%realize")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.HandleAppLine("%echo [gV l label]")
		w.App.Pump()
	}
	if replies < b.N {
		b.Fatalf("replies = %d", replies)
	}
}

// BenchmarkF5_PrimeFactorKeystrokes measures the paper's demo loop:
// type a digit + Return, dispatch through translations, forward the
// input line.
func BenchmarkF5_PrimeFactorKeystrokes(b *testing.B) {
	w := newWafe(b)
	lines := 0
	w.Interp.Stdout = func(string) { lines++ }
	mustEval(b, w, "form top topLevel")
	mustEval(b, w, "asciiText input top editType edit width 200")
	mustEval(b, w, `action input override {<Key>Return: exec(echo [gV input string])}`)
	mustEval(b, w, "realize")
	wid := w.App.WidgetByName("input")
	d := wid.Display()
	d.SetInputFocus(wid.Window())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.TypeString("7\r")
		w.App.Pump()
	}
	if lines < b.N {
		b.Fatalf("read-loop lines = %d", lines)
	}
}

// BenchmarkC1_GetResourceList measures the paper's interactive example
// (42 resources of a Label).
func BenchmarkC1_GetResourceList(b *testing.B) {
	w := newWafe(b)
	mustEval(b, w, "label l topLevel")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mustEval(b, w, "getResourceList l retVal"); got != "42" {
			b.Fatalf("count = %s", got)
		}
	}
}

// BenchmarkC2_NativeVsWafeCallback quantifies the claim "from its
// performance a user cannot distinguish whether a widget application
// was developed using C or Wafe": the same button activation through a
// native (compiled) callback versus a Tcl-script callback.
func BenchmarkC2_NativeVsWafeCallback(b *testing.B) {
	b.Run("native", func(b *testing.B) {
		w := newWafe(b)
		mustEval(b, w, "command btn topLevel")
		mustEval(b, w, "realize")
		wid := w.App.WidgetByName("btn")
		count := 0
		_ = wid.AddCallback("callback", xt.Callback{Proc: func(*xt.Widget, xt.CallData) { count++ }})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			click(w, "btn")
		}
		if count != b.N {
			b.Fatalf("count = %d", count)
		}
	})
	b.Run("wafe-tcl", func(b *testing.B) {
		w := newWafe(b)
		mustEval(b, w, "set count 0")
		mustEval(b, w, `command btn topLevel callback {incr count}`)
		mustEval(b, w, "realize")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			click(w, "btn")
		}
		if got := mustEval(b, w, "set count"); got != fmt.Sprint(b.N) {
			b.Fatalf("count = %s", got)
		}
	})
}

// BenchmarkC3_ClickAhead measures queuing clicks while the backend is
// busy: events buffer in the I/O channel and none are lost.
func BenchmarkC3_ClickAhead(b *testing.B) {
	w := core.NewTest()
	var sink strings.Builder
	f := frontend.New(w, nil, &sink)
	buffered := 0
	w.Interp.Stdout = func(string) { buffered++ } // backend not reading: lines pile up
	f.HandleAppLine("%command btn topLevel callback {echo click}")
	f.HandleAppLine("%realize")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		click(w, "btn")
	}
	if buffered != b.N {
		b.Fatalf("buffered = %d, want %d (click-ahead lost events)", buffered, b.N)
	}
}

// BenchmarkC5_MassTransfer measures the mass-transfer data channel at
// the paper's 100 000-byte example plus a sweep, reporting MB/s.
func BenchmarkC5_MassTransfer(b *testing.B) {
	for _, size := range []int{1 << 10, 100000, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			w := core.NewTest()
			var sink strings.Builder
			f := frontend.New(w, nil, &sink)
			w.Interp.Stdout = func(string) {}
			f.HandleAppLine("%asciiText text topLevel editType edit")
			f.HandleAppLine("%realize")
			f.HandleAppLine(fmt.Sprintf("%%setCommunicationVariable C %d {sV text string $C}", size))
			payload := strings.Repeat("x", size)
			wid := w.App.WidgetByName("text")
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.FeedMass(payload)
				w.App.Pump()
				if len(wid.Str("string")) != size {
					b.Fatalf("transfer incomplete: %d", len(wid.Str("string")))
				}
			}
		})
	}
}

// massPipe is C5 as wafe --app runs it, in process: a frontend with its
// event loop running, whose data channel is a real os.Pipe attached
// with AttachMass and armed for size-byte transfers. A transfer ends
// when the armed script's reply arrives.
type massPipe struct {
	payload []byte
	want    string
	pipe    *os.File
	replies chan string
	stop    func()
}

func newMassPipe(tb testing.TB, size int) *massPipe {
	tb.Helper()
	w := core.NewTest()
	f := frontend.New(w, nil, io.Discard)
	replies := make(chan string, 1)
	w.Interp.Stdout = func(line string) { replies <- line }
	r, pw, err := os.Pipe()
	if err != nil {
		tb.Fatal(err)
	}
	f.AttachMass(r)
	f.HandleAppLine("%asciiText text topLevel editType edit")
	f.HandleAppLine("%realize")
	f.HandleAppLine(fmt.Sprintf("%%setCommunicationVariable C %d {sV text string $C; echo [string length $C]}", size))
	done := make(chan int)
	go func() { done <- w.App.MainLoop() }()
	return &massPipe{
		payload: []byte(strings.Repeat("x", size)),
		want:    strconv.Itoa(size),
		pipe:    pw,
		replies: replies,
		stop: func() {
			w.App.Post(func() { w.App.Quit(0) })
			<-done
			pw.Close()
			r.Close()
		},
	}
}

func (m *massPipe) transfer(tb testing.TB) {
	if _, err := m.pipe.Write(m.payload); err != nil {
		tb.Fatal(err)
	}
	if got := <-m.replies; got != m.want {
		tb.Fatalf("armed script replied %q, want %q", got, m.want)
	}
}

// BenchmarkC5_MassPipe moves the paper's 100 000-byte transfer through
// a real pipe with the event loop running: the path e2ebench's bulk
// workload times for its mass op, without the process crossings.
func BenchmarkC5_MassPipe(b *testing.B) {
	m := newMassPipe(b, 100000)
	defer m.stop()
	b.SetBytes(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.transfer(b)
	}
}

// TestMassTransferAllocs gates what a piped 100 000-byte transfer
// costs the whole process, reader goroutine and loop included: the
// payload is copied once, into the variable's own storage.
func TestMassTransferAllocs(t *testing.T) {
	m := newMassPipe(t, 100000)
	defer m.stop()
	for i := 0; i < 10; i++ {
		m.transfer(t) // warm: read buffers, script cache
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		m.transfer(t)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.1f allocations, %.0f B per transfer", allocs, bytes)
	if allocs > 8 || bytes > 110000 {
		t.Errorf("piped 100 000-byte transfer: %.1f allocations and %.0f B, want at most 8 and 110000", allocs, bytes)
	}
}

// BenchmarkC6_CodeGeneration measures the generator over the full
// specification: the command table and both reference guides (the
// paper: 60 % of 13 000 C lines were generated). The last run's output
// must name every spec entry's command.
func BenchmarkC6_CodeGeneration(b *testing.B) {
	data, err := os.ReadFile("specs/wafe.spec")
	if err != nil {
		b.Fatal(err)
	}
	src := string(data)
	var entries []spec.Entry
	var code, ref string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err = spec.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if code, _, err = spec.GenerateGo(entries); err != nil {
			b.Fatal(err)
		}
		ref = spec.GenerateReference(entries)
		_ = spec.GenerateTeX(entries)
	}
	b.StopTimer()
	for _, e := range entries {
		out, word := ref, "  "+e.CommandName()+" "
		if e.Kind == "function" {
			out, word = code, fmt.Sprintf("{Name: %q,", e.CommandName())
		}
		if !strings.Contains(out, word) {
			b.Fatalf("generated output lacks command %s", e.CommandName())
		}
	}
}

// BenchmarkC7_XevKeyDispatch measures the xev demo path: raw keycode →
// keysym lookup → translation match → exec percent expansion → Tcl.
func BenchmarkC7_XevKeyDispatch(b *testing.B) {
	w := newWafe(b)
	lines := 0
	w.Interp.Stdout = func(string) { lines++ }
	mustEval(b, w, "label xev topLevel")
	mustEval(b, w, `action xev override {<KeyPress>: exec(echo %k %a %s)}`)
	mustEval(b, w, "realize")
	wid := w.App.WidgetByName("xev")
	d := wid.Display()
	d.SetInputFocus(wid.Window())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.InjectKeycode(198, true) // 'w'
		d.InjectKeycode(198, false)
		w.App.Pump()
	}
	if lines < b.N {
		b.Fatalf("lines = %d", lines)
	}
}

// BenchmarkC12_ResourceQuery measures Xrm database matching under the
// paper's precedence rules.
func BenchmarkC12_ResourceQuery(b *testing.B) {
	db := xt.NewXrm()
	_ = db.EnterString(`
*foreground: blue
*Label.foreground: green
wafe*form.label1.foreground: red
*Font: fixed
*background: white
wafe.form.Command.background: gray
`)
	names := []string{"wafe", "form", "label1"}
	classes := []string{"Wafe", "Form", "Label"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, ok := db.Query(names, classes, "foreground", "Foreground")
		if !ok || v != "red" {
			b.Fatalf("query = %q/%v", v, ok)
		}
	}
}

// BenchmarkC10_MultiDisplayCreate measures shell creation on a second
// display.
func BenchmarkC10_MultiDisplayCreate(b *testing.B) {
	w := newWafe(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustEval(b, w, fmt.Sprintf("applicationShell s%d bench-dec4:0", i))
		mustEval(b, w, fmt.Sprintf("destroyWidget s%d", i))
	}
}

// BenchmarkTcl_Interpreter gives context numbers for the host language
// (the paper: Tcl is "not suitable ... when repetitious calculations
// have to be made").
func BenchmarkTcl_Interpreter(b *testing.B) {
	b.Run("expr", func(b *testing.B) {
		in := tcl.New()
		for i := 0; i < b.N; i++ {
			if _, err := in.Eval("expr {3*4 + 2**8 - 1}"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("proc-call", func(b *testing.B) {
		in := tcl.New()
		if _, err := in.Eval("proc f {a b} {expr {$a+$b}}"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := in.Eval("f 3 4"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prime-factors-60", func(b *testing.B) {
		in := tcl.New()
		_, err := in.Eval(`proc pf {n} {
			set result {}
			for {set d 2} {$d <= $n} {incr d} {
				while {[expr $n % $d] == 0} {lappend result $d; set n [expr $n / $d]}
			}
			return $result
		}`)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := in.Eval("pf 60"); err != nil || res != "2 2 3 5" {
				b.Fatalf("%q %v", res, err)
			}
		}
	})
}

// BenchmarkWidgetCreation_WafeVsDirect compares widget creation through
// the Tcl command layer against the direct Xt API — the overhead a C
// programmer would avoid.
func BenchmarkWidgetCreation_WafeVsDirect(b *testing.B) {
	b.Run("wafe-command", func(b *testing.B) {
		w := newWafe(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("l%d", i)
			mustEval(b, w, "label "+name+" topLevel label hello")
			mustEval(b, w, "destroyWidget "+name)
		}
	})
	b.Run("direct-xt", func(b *testing.B) {
		w := newWafe(b)
		cls, _ := coreClassLookup(w, "label")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("l%d", i)
			wid, err := w.App.CreateWidget(name, cls, w.TopLevel, map[string]string{"label": "hello"}, true)
			if err != nil {
				b.Fatal(err)
			}
			wid.Destroy()
		}
	})
}

func coreClassLookup(w *core.Wafe, cmd string) (*xt.Class, bool) {
	for _, c := range w.WidgetSetClasses() {
		if core.CreationCommandName(c.Name) == cmd {
			return c, true
		}
	}
	return nil, false
}

// BenchmarkBulkRebuild times one rebuild pair of the end-to-end bulk
// workload in process: build the 41-widget popup under bulkSetup's
// form, pop it up, settle so it paints, and destroy it again.
func BenchmarkBulkRebuild(b *testing.B) {
	w := newWafe(b)
	mustEval(b, w, bulkSetup)
	build := bulkShapedPopup() + "popup pop none"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustEval(b, w, build)
		w.App.Pump()
		mustEval(b, w, "destroyWidget pop")
		w.App.Pump()
	}
}
