package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"wafe/internal/core"
	"wafe/internal/frontend"
	"wafe/internal/obs"
	"wafe/internal/plotter"
	"wafe/internal/tcl"
	"wafe/internal/xaw"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// This file assembles a wafe frontend in-process from the public calls
// cmd/wafe and AttachApp use - frontend.NewSession, App.AddInputEvents
// feeding Frontend.HandleAppLine, Frontend.AttachMass and the
// interpreter's Stdout hook - with its own line reader standing in for
// the unexported one, and times the calls into each layer.

// traceRun is one traced run: its sessions, and the process-wide memory
// statistics read at the edges of their timed phases.
type traceRun struct {
	sessions int // sessions expected to run a timed phase

	mu     sync.Mutex
	traces []*sessionTrace
	open   int
	closed int
	// ms0 is read after a forced GC when the first session's timed phase
	// starts; ms1 when the last one's ends, and ms2 after a forced GC
	// then, so that HeapAlloc growth from ms0 to ms2 is retained memory.
	ms0, ms1, ms2 runtime.MemStats
}

func (tr *traceRun) phaseStart() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.open == 0 {
		runtime.GC()
		runtime.ReadMemStats(&tr.ms0)
	}
	tr.open++
}

func (tr *traceRun) phaseEnd() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.closed++; tr.closed == tr.sessions {
		runtime.ReadMemStats(&tr.ms1)
		runtime.GC()
		runtime.ReadMemStats(&tr.ms2)
	}
}

// sessionTrace instruments one session.
type sessionTrace struct {
	run     *traceRun
	sess    *frontend.Session
	metrics *obs.Metrics
	t       *tracer

	// stamps carries, in line order, the time the connection Read that
	// completed each line returned. Its capacity exceeds the lines that
	// can be queued between the reader and the loop (the event channel
	// plus the app's posted queue), so the reader never blocks on it.
	stamps chan int64
	// massDone carries the time the last byte of each payload was read.
	massDone chan int64

	reads, lines, massReads, massTransfers atomic.Int64

	// Loop-goroutine state.
	timed           bool
	qwait, massWait []int64
	c0, c1          map[string]int64
	self            [numLayers]int64
	root            int64
}

func (tr *traceRun) newSession(term io.Writer, private bool) (*sessionTrace, error) {
	sess, err := frontend.NewSession(frontend.SessionConfig{
		Set:            core.SetAthena,
		Opts:           &frontend.Options{Mode: frontend.ModeFrontend, AppName: "wafe"},
		Terminal:       term,
		PrivateDisplay: private,
	})
	if err != nil {
		return nil, err
	}
	st := &sessionTrace{
		run:      tr,
		sess:     sess,
		metrics:  sess.W.EnableObservability(),
		t:        &tracer{now: monoNow},
		stamps:   make(chan int64, 4096),
		massDone: make(chan int64, 16),
	}
	st.instrument()
	tr.mu.Lock()
	tr.traces = append(tr.traces, st)
	tr.mu.Unlock()
	return st, nil
}

func (st *sessionTrace) close() {
	tracers.Delete(st.sess.W.App)
	st.sess.Close()
}

// attach wires the connection as the session's backend, as AttachApp
// does, with the reply hook and the line reader instrumented.
func (st *sessionTrace) attach(r io.Reader, w io.Writer) {
	st.sess.W.Interp.Stdout = func(line string) {
		st.t.begin(layerReply)
		fmt.Fprintln(w, line)
		st.t.end()
	}
	events := make(chan xt.InputEvent, 256)
	go st.readLines(r, events)
	st.sess.W.App.AddInputEvents(events, st.handle)
}

// readLines frames the connection into lines, stamping each with the
// time the Read that completed it returned.
func (st *sessionTrace) readLines(r io.Reader, events chan<- xt.InputEvent) {
	defer close(events)
	buf := make([]byte, 64<<10)
	part := make([]byte, 0, 4<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			at := st.t.now()
			st.reads.Add(1)
			data := buf[:n]
			for {
				i := bytes.IndexByte(data, '\n')
				if i < 0 {
					part = append(part, data...)
					break
				}
				line := string(append(part, data[:i]...))
				part, data = part[:0], data[i+1:]
				line = strings.TrimSuffix(line, "\r")
				if !strings.HasPrefix(line, markerPrefix) {
					st.lines.Add(1)
				}
				st.stamps <- at
				events <- xt.InputEvent{Line: line}
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				events <- xt.InputEvent{EOF: true}
			} else {
				events <- xt.InputEvent{Err: err}
			}
			return
		}
	}
}

// handle runs on the event loop for every line: it records the line's
// queue wait and times HandleAppLine as the root span.
func (st *sessionTrace) handle(ev xt.InputEvent) {
	if ev.EOF || ev.Err != nil {
		st.sess.W.App.Quit(0)
		return
	}
	at := <-st.stamps
	if what, ok := strings.CutPrefix(ev.Line, markerPrefix); ok {
		st.marker(what)
		return
	}
	now := st.t.now()
	if st.timed {
		st.qwait = append(st.qwait, now-at)
	}
	st.t.beginAt(layerTcl, now)
	st.sess.F.HandleAppLine(ev.Line)
	st.t.end()
}

// marker opens or closes the timed phase.
func (st *sessionTrace) marker(what string) {
	switch what {
	case "timed":
		st.t.reset()
		st.c0 = st.counters()
		st.timed = true
		st.run.phaseStart()
	case "end":
		st.timed = false
		st.self, st.root = st.t.self, st.t.root
		st.c1 = st.counters()
		st.run.phaseEnd()
	}
}

// statNames are the statistics counters the per-layer metrics read.
var statNames = map[string]bool{
	"tcl.script_cache.hits": true, "tcl.script_cache.misses": true,
	"tcl.expr_cache.hits": true, "tcl.expr_cache.misses": true,
	"xt.events_dispatched": true, "xt.redraw_clipped": true, "xt.redraw_full": true,
	"xt.xrm_searchlist_hits": true, "xt.xrm_searchlist_misses": true,
	"xproto.damage_rects": true, "xproto.exposes_coalesced": true,
}

// counters reads the statistics counters and the reader's own counts.
func (st *sessionTrace) counters() map[string]int64 {
	c := map[string]int64{
		"reads":          st.reads.Load(),
		"lines":          st.lines.Load(),
		"mass_reads":     st.massReads.Load(),
		"mass_transfers": st.massTransfers.Load(),
	}
	for _, s := range st.metrics.Snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "xproto.requests."):
			c["xproto.requests"] += s.Value
		case statNames[s.Name]:
			c[s.Name] = s.Value
		}
	}
	return c
}

// massReader is the reader handed to AttachMass: it counts Read calls
// and stamps the read that completes each payload.
type massReader struct {
	r   io.Reader
	st  *sessionTrace
	got int64
}

func (m *massReader) Read(p []byte) (int, error) {
	n, err := m.r.Read(p)
	if n > 0 {
		m.st.massReads.Add(1)
		before := m.got
		m.got += int64(n)
		for k := before/massSize + 1; k*massSize <= m.got; k++ {
			m.st.massTransfers.Add(1)
			select {
			case m.st.massDone <- m.st.t.now():
			default:
			}
		}
	}
	return n, err
}

// command opens a wrapped command's span. A command that starts with no
// span open is the first command of the armed mass script: its wait
// since the payload's last byte was read is the mass wait.
func (st *sessionTrace) command(l layer) {
	if st.t.depth() == 0 {
		select {
		case at := <-st.massDone:
			if st.timed {
				st.massWait = append(st.massWait, st.t.now()-at)
			}
		default:
		}
	}
	st.t.begin(l)
}

// --- instrumentation ----------------------------------------------------------

var (
	classesOnce sync.Once
	// tracers maps each instrumented session's app to its tracer, for the
	// class methods and class actions, which all sessions share.
	tracers sync.Map
)

func tracerFor(w *xt.Widget) *tracer {
	if v, ok := tracers.Load(w.App()); ok {
		return v.(*tracer)
	}
	return nil
}

// instrument wraps every command core registers, the app's actions, and
// (once per process) the widget classes' methods and actions.
func (st *sessionTrace) instrument() {
	w := st.sess.W
	classesOnce.Do(func() { wrapClasses(w.WidgetSetClasses()) })
	tracers.Store(w.App, st.t)

	builtin := map[string]bool{}
	for _, name := range tcl.New().CommandNames() {
		builtin[name] = true
	}
	creation := map[string]bool{}
	for _, c := range w.WidgetSetClasses() {
		creation[core.CreationCommandName(c.Name)] = true
	}
	// Commands a fresh interpreter already has stay unwrapped, so the
	// VM's specialized set/incr/expr/while/for are never rebound; list is
	// the one creation command among them.
	for _, name := range w.Interp.CommandNames() {
		if builtin[name] && !creation[name] {
			continue
		}
		fn, _ := w.Interp.Command(name)
		l := commandLayer(name, creation[name])
		w.Interp.RegisterCommand(name, func(in *tcl.Interp, argv []string) (string, error) {
			st.command(l)
			defer st.t.end()
			return fn(in, argv)
		})
	}
	for _, name := range []string{"exec", "RddStartDrag", "RddDrop"} {
		if a := w.App.LookupAction(w.TopLevel, name); a != nil {
			w.App.AddAction(name, func(wd *xt.Widget, ev *xproto.Event, params []string) {
				st.t.begin(layerXtAction)
				defer st.t.end()
				a(wd, ev, params)
			})
		}
	}
}

func commandLayer(name string, creation bool) layer {
	switch {
	case creation:
		return layerCoreCreate
	case name == "sendKeys":
		return layerCoreSendKeys
	case name == "sV" || name == "sv" || name == "setValues":
		return layerCoreSetValues
	case name == "stripChartSample" || name == "listChange":
		return layerCorePlot
	case name == "destroyWidget":
		return layerCoreDestroy
	}
	return layerCoreOther
}

// wrapClasses wraps the non-nil methods and the actions of every class in
// the chains of classes, attributing each to the module defining it.
func wrapClasses(classes []*xt.Class) {
	module := map[*xt.Class]string{}
	for _, c := range xaw.AllClasses() {
		module[c] = "xaw"
	}
	for _, c := range plotter.AllClasses() {
		module[c] = "plotter"
	}
	seen := map[*xt.Class]bool{}
	for _, c := range classes {
		for k := c; k != nil && !seen[k]; k = k.Super {
			seen[k] = true
			wrapMethods(k, module[k])
			for name, a := range k.Actions {
				k.Actions[name] = wrapAction(a)
			}
		}
	}
}

func methodLayer(module, method string) layer {
	switch module {
	case "xaw":
		switch method {
		case "Redisplay":
			return layerXawRedisplay
		case "SetValues":
			return layerXawSetValues
		case "Initialize":
			return layerXawInitialize
		case "Destroy":
			return layerXawDestroy
		case "Realize":
			return layerXawRealize
		}
		return layerXawGeometry
	case "plotter":
		switch method {
		case "Redisplay":
			return layerPlotterRedisplay
		case "SetValues":
			return layerPlotterSetValues
		}
		return layerPlotterOther
	}
	return layerXtMethods
}

func wrapMethods(k *xt.Class, module string) {
	k.Initialize = wrapMethod(k.Initialize, methodLayer(module, "Initialize"))
	k.Realize = wrapMethod(k.Realize, methodLayer(module, "Realize"))
	k.Redisplay = wrapMethod(k.Redisplay, methodLayer(module, "Redisplay"))
	k.Resize = wrapMethod(k.Resize, methodLayer(module, "Resize"))
	k.Destroy = wrapMethod(k.Destroy, methodLayer(module, "Destroy"))
	k.ChangeManaged = wrapMethod(k.ChangeManaged, methodLayer(module, "ChangeManaged"))
	if f := k.SetValues; f != nil {
		l := methodLayer(module, "SetValues")
		k.SetValues = func(w *xt.Widget, changed map[string]bool) {
			if t := tracerFor(w); t != nil {
				t.begin(l)
				defer t.end()
			}
			f(w, changed)
		}
	}
	if f := k.PreferredSize; f != nil {
		l := methodLayer(module, "PreferredSize")
		k.PreferredSize = func(w *xt.Widget) (int, int) {
			if t := tracerFor(w); t != nil {
				t.begin(l)
				defer t.end()
			}
			return f(w)
		}
	}
}

func wrapMethod(f func(*xt.Widget), l layer) func(*xt.Widget) {
	if f == nil {
		return nil
	}
	return func(w *xt.Widget) {
		if t := tracerFor(w); t != nil {
			t.begin(l)
			defer t.end()
		}
		f(w)
	}
}

func wrapAction(a xt.ActionProc) xt.ActionProc {
	return func(w *xt.Widget, ev *xproto.Event, params []string) {
		if t := tracerFor(w); t != nil {
			t.begin(layerXtAction)
			defer t.end()
		}
		a(w, ev, params)
	}
}

// --- results --------------------------------------------------------------------

// totals sums the timed phases of a traced run's sessions.
type totals struct {
	self            [numLayers]int64
	root            int64
	qwait, massWait []int64
	counters        map[string]int64
	alloc           uint64
	gcs             uint32
	heapGrowth      int64
}

// totals must run after every session's loop has ended.
func (tr *traceRun) totals() *totals {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tot := &totals{counters: map[string]int64{}}
	for _, st := range tr.traces {
		for l := range tot.self {
			tot.self[l] += st.self[l]
		}
		tot.root += st.root
		tot.qwait = append(tot.qwait, st.qwait...)
		tot.massWait = append(tot.massWait, st.massWait...)
		for k, v := range st.c1 {
			tot.counters[k] += v - st.c0[k]
		}
	}
	if tr.closed == tr.sessions {
		tot.alloc = tr.ms1.TotalAlloc - tr.ms0.TotalAlloc
		tot.gcs = tr.ms1.NumGC - tr.ms0.NumGC
		tot.heapGrowth = int64(tr.ms2.HeapAlloc) - int64(tr.ms0.HeapAlloc)
	}
	return tot
}
