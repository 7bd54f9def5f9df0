package xt

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"wafe/internal/obs"
	"wafe/internal/xproto"
)

type windowKey struct {
	d   *xproto.Display
	win xproto.WindowID
}

// App is the application context (XtAppContext): displays, the resource
// database, converters, global actions, timeouts and alternate inputs,
// plus the widget registries.
type App struct {
	Name      string
	ClassName string

	// Namespace scopes every display name this app opens. A serve-mode
	// session sets it to its session id, so two sessions whose scripts
	// both say "applicationShell top2 dec4:0" get two distinct virtual
	// displays — the named in-memory displays are the isolation
	// boundary between sessions. Empty (the single-process default)
	// leaves display names untouched.
	Namespace string

	DB *Xrm

	display  *xproto.Display
	displays []*xproto.Display

	convertersQ map[Quark]Converter // the converters, keyed by interned type
	formatters  map[string]Formatter
	actions     map[string]ActionProc

	widgets  map[string]*Widget
	byWindow map[windowKey]*Widget

	// Widget-creation caches. defaults holds, per compiled layout, the
	// converted default of each shareable slot converted so far;
	// RegisterConverter clears it. classTT holds each class's parsed
	// DefaultTranslations, shared by its instances; it is per app, not
	// per class, because exec bindings cache a parsed script in the
	// table. slotSrc is the buffer the batched Xrm lookup fills.
	defaults map[*resourceLayout][]any
	classTT  map[*Class]*Translations
	slotSrc  []slotSource

	posted chan func()
	timers []*Timer
	nextID int

	quit     bool
	quitCode int

	// fullRepaint forces the legacy render path: every damage rect
	// widens to the whole window and every expose clears and repaints
	// unconditionally. Kept as the differential oracle the clipped
	// pipeline is compared against.
	fullRepaint bool

	// dispatchedCall points at the translation binding currently being
	// dispatched, so action procedures can reach their per-binding
	// Compiled cache slot. Nil outside DispatchEvent.
	dispatchedCall *ActionCall

	// events holds the event being dispatched at each dispatch depth
	// (an action may pump re-entrantly), so handing an action or a
	// Redisplay its *Event copies nothing to the heap. Nothing keeps
	// the pointer after its dispatch returns.
	events [8]xproto.Event
	depth  int

	// ErrorHandler, when non-nil, receives each error raised while
	// dispatching actions; the frontend writes it on its terminal.
	ErrorHandler func(error)

	// metrics, when non-nil, collects event-dispatch latency, queue
	// depths and callback/action firings, and its Trace records a span
	// per event dispatch, action and callback. It is handed to the
	// resource database and to every display, current and future. Nil
	// (the default) keeps the dispatch paths at a single atomic
	// pointer load. Atomic because Post is called from input-reader
	// goroutines while observability may be enabled on the loop
	// goroutine mid-session.
	metrics atomic.Pointer[obs.Metrics]

	// loopGoID identifies the goroutine currently running the event
	// loop (MainLoop, or Sync in tests); zero when none. Post consults
	// it on the full-queue path to avoid deadlocking against itself.
	loopGoID atomic.Int64

	// changedSets holds the emptied sets of changed resource names that
	// SetValues hands the class SetValues methods. They are reused, so
	// a SetValues call builds none; calls nest when a method sets
	// resources of its own.
	changedSets []map[string]bool
}

// SetMetrics attaches (or, with nil, detaches) the observability
// registry: on the app's dispatch sites, on its resource database and
// on every display of the app, current and future.
func (app *App) SetMetrics(m *obs.Metrics) {
	app.metrics.Store(m)
	app.DB.setMetrics(m)
	for _, d := range app.displays {
		d.SetMetrics(m)
	}
}

// NewApp creates an application context bound to the named display
// (the empty string means ":0").
func NewApp(appName, className, displayName string) *App {
	d := xproto.OpenDisplay(displayName)
	return newAppOn(appName, className, d)
}

// NewSessionApp creates an application context inside a display
// namespace: the primary display and every secondary display opened
// later are named <namespace>/<name>, private to this session by
// uniqueness of the namespace. Close releases them.
func NewSessionApp(appName, className, namespace string) *App {
	d := xproto.OpenDisplay(namespace + "/:0")
	app := newAppOn(appName, className, d)
	app.Namespace = namespace
	return app
}

// NewTestApp creates an app on a private display for tests.
func NewTestApp(appName string) *App {
	className := appName
	if className != "" {
		b := []byte(className)
		if b[0] >= 'a' && b[0] <= 'z' {
			b[0] -= 32
		}
		className = string(b)
	}
	return newAppOn(appName, className, xproto.NewTestDisplay())
}

func newAppOn(appName, className string, d *xproto.Display) *App {
	app := &App{
		Name:        appName,
		ClassName:   className,
		DB:          NewXrm(),
		display:     d,
		displays:    []*xproto.Display{d},
		convertersQ: make(map[Quark]Converter),
		formatters:  make(map[string]Formatter),
		actions:     make(map[string]ActionProc),
		widgets:     make(map[string]*Widget),
		byWindow:    make(map[windowKey]*Widget),
		defaults:    make(map[*resourceLayout][]any),
		classTT:     make(map[*Class]*Translations),
		posted:      make(chan func(), 1024),
	}
	registerBuiltinConverters(app)
	return app
}

// Display returns the default display.
func (app *App) Display() *xproto.Display { return app.display }

// OpenSecondDisplay attaches another display to the application, as
// "applicationShell top2 dec4:0" requires. Inside a namespaced app the
// name is scoped to the session, so equal names in different sessions
// open distinct displays.
func (app *App) OpenSecondDisplay(name string) *xproto.Display {
	if app.Namespace != "" {
		name = app.Namespace + "/" + name
	}
	d := xproto.OpenDisplay(name)
	for _, have := range app.displays {
		if have == d {
			return d
		}
	}
	if m := app.metrics.Load(); m != nil {
		d.SetMetrics(m)
	}
	app.displays = append(app.displays, d)
	return d
}

// Displays returns all displays attached to the app.
func (app *App) Displays() []*xproto.Display {
	return append([]*xproto.Display(nil), app.displays...)
}

// Close releases the app's displays from the process-wide registry so
// a retired session's virtual displays (and their window trees, draw
// logs and event queues) become collectable. Must run after the
// event loop has stopped.
func (app *App) Close() {
	for _, d := range app.displays {
		xproto.CloseDisplay(d)
	}
}

// WidgetByName resolves a widget reference — the string names Wafe uses
// everywhere instead of widget pointers.
func (app *App) WidgetByName(name string) *Widget { return app.widgets[name] }

// WidgetForWindow resolves a server window back to its widget
// (XtWindowToWidget).
func (app *App) WidgetForWindow(d *xproto.Display, win xproto.WindowID) *Widget {
	return app.byWindow[windowKey{d, win}]
}

// WidgetNames lists all live widgets, sorted.
func (app *App) WidgetNames() []string {
	out := make([]string, 0, len(app.widgets))
	for n := range app.widgets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// raise counts a dispatch error and hands it to ErrorHandler.
func (app *App) raise(err error) {
	if m := app.metrics.Load(); m != nil {
		m.Xt.DispatchErrors.Inc()
	}
	if app.ErrorHandler != nil {
		app.ErrorHandler(err)
	}
}

// --- actions ---------------------------------------------------------------

// AddAction registers a global action procedure (XtAppAddActions); the
// Wafe layer registers "exec" this way.
func (app *App) AddAction(name string, proc ActionProc) { app.actions[name] = proc }

// LookupAction resolves an action for a widget: class chain first, then
// the global table.
func (app *App) LookupAction(w *Widget, name string) ActionProc {
	if a := w.Class.actionFor(name); a != nil {
		return a
	}
	return app.actions[name]
}

// --- event dispatch ----------------------------------------------------------

// DispatchEvent routes one X event to its widget (XtDispatchEvent):
// Expose redraws, input events run through the translation table.
// With observability attached, each dispatch is timed, and with
// tracing enabled it is a span (a root span when no protocol line is
// open — timer- and input-driven events).
func (app *App) DispatchEvent(d *xproto.Display, ev xproto.Event) {
	if m := app.metrics.Load(); m != nil {
		if m.Trace.Enabled() {
			sp := m.Trace.StartSpan("dispatch", ev.Type.String())
			defer sp.End()
		}
		start := time.Now()
		app.dispatchEvent(d, ev)
		m.Xt.DispatchLatency.Observe(time.Since(start))
		return
	}
	app.dispatchEvent(d, ev)
}

func (app *App) dispatchEvent(d *xproto.Display, e xproto.Event) {
	w := app.byWindow[windowKey{d, e.Window}]
	if w == nil || w.beingDestroyed {
		return
	}
	var ev *xproto.Event
	if app.depth < len(app.events) {
		ev = &app.events[app.depth]
	} else {
		ev = new(xproto.Event)
	}
	*ev = e
	app.depth++
	defer func() { app.depth-- }()
	switch ev.Type {
	case xproto.Expose:
		w.redrawExpose(ev)
		return
	case xproto.MapNotify, xproto.UnmapNotify, xproto.ConfigureNotify, xproto.DestroyNotify:
		return
	}
	if !w.IsSensitive() {
		return
	}
	calls := w.translations().Match(ev)
	for i := range calls {
		call := &calls[i]
		recv := w
		if call.Target != nil && !call.Target.beingDestroyed {
			recv = call.Target
		}
		proc := app.LookupAction(recv, call.Name)
		if proc == nil {
			app.raise(fmt.Errorf("xt: widget %q: unbound action %q", recv.Name, call.Name))
			continue
		}
		var sp obs.SpanCtx
		if m := app.metrics.Load(); m != nil {
			m.Xt.ActionsFired.Inc()
			sp = m.Trace.StartSpan("action", call.Name)
		}
		app.dispatchedCall = call
		proc(recv, ev, call.Params)
		app.dispatchedCall = nil
		sp.End()
	}
}

// DispatchedCall returns the translation binding whose action is
// currently executing, or nil. Action procedures use it to cache a
// parsed form of their params on the binding (ActionCall.Compiled).
func (app *App) DispatchedCall() *ActionCall { return app.dispatchedCall }

// SetFullRepaint switches between the damage-clipped render pipeline
// (default) and the legacy full-repaint path. The render oracle tests
// run both and require identical snapshots.
//
//wafe:seam the render oracle compares the clipped pipeline against full repaints
func (app *App) SetFullRepaint(on bool) { app.fullRepaint = on }

// Pump dispatches all pending events on all displays until the queues
// are empty, the coalesced Exposes of all pending damage included: it
// settles the screen. The main loop calls it once per turn; commands
// that inject input or read the screen call it too.
func (app *App) Pump() {
	for rounds := 0; rounds < 1000; rounds++ {
		progress := false
		for _, d := range app.displays {
			if m := app.metrics.Load(); m != nil {
				m.Xt.EventQueueDepth.Observe(int64(d.Pending()))
			}
			for {
				ev, ok := d.NextEvent()
				if !ok {
					break
				}
				progress = true
				app.DispatchEvent(d, ev)
			}
		}
		if !progress {
			return
		}
	}
}

// Post schedules fn to run on the event-loop goroutine.
func (app *App) Post(fn func()) {
	if m := app.metrics.Load(); m != nil {
		m.Xt.PostedQueueDepth.Observe(int64(len(app.posted)))
	}
	select {
	case app.posted <- fn:
	default:
		// Queue full. A blocking send is correct from reader
		// goroutines, which may legitimately outpace the loop — but on
		// the loop goroutine itself (a callback or timer posting) it
		// would wait on the only goroutine able to drain the queue.
		// Run the closure inline in that case; the goroutine identity
		// check is confined to this cold path.
		if app.loopGoID.Load() == goid() {
			fn()
			return
		}
		app.posted <- fn
	}
}

// --- timeouts ----------------------------------------------------------------

// Timer is a pending timeout (XtAppAddTimeOut).
type Timer struct {
	id       int
	deadline time.Time
	fn       func()
	removed  bool
}

// AddTimeout schedules fn once after d.
func (app *App) AddTimeout(d time.Duration, fn func()) *Timer {
	app.nextID++
	t := &Timer{id: app.nextID, deadline: time.Now().Add(d), fn: fn}
	app.timers = append(app.timers, t)
	return t
}

// Remove cancels the timer (XtRemoveTimeOut).
func (t *Timer) Remove() { t.removed = true }

// runDueTimers fires expired timers; returns the wait until the next
// deadline (or a park interval when none).
func (app *App) runDueTimers() time.Duration {
	now := time.Now()
	next := 50 * time.Millisecond
	var keep []*Timer
	var due []*Timer
	for _, t := range app.timers {
		switch {
		case t.removed:
		case !t.deadline.After(now):
			due = append(due, t)
		default:
			keep = append(keep, t)
			if d := t.deadline.Sub(now); d < next {
				next = d
			}
		}
	}
	app.timers = keep
	for _, t := range due {
		// Recheck removal: XtRemoveTimeOut guarantees a removed timeout
		// never fires, including removal by an earlier timer callback
		// in the same due batch.
		if t.removed {
			continue
		}
		t.fn()
	}
	if len(due) > 0 {
		return 0
	}
	return next
}

// --- alternate inputs ----------------------------------------------------------

// InputEvent is one delivery from an error-aware input source: a line,
// or a terminal condition — EOF (the source closed cleanly) or Err (the
// read failed). Distinguishing the two is what lets the frontend tell a
// backend that exited from a pipe that broke.
type InputEvent struct {
	Line string
	EOF  bool
	Err  error
}

// AddInputEvents attaches an input source with error reporting: each
// event received on ch is handed to handler on the event-loop
// goroutine, in order. The producer sends a terminal EOF or Err event
// and then closes ch. This is the frontend-mode hook (XtAppAddInput on
// the command pipe from the application program).
func (app *App) AddInputEvents(ch <-chan InputEvent, handler func(InputEvent)) {
	go func() {
		for ev := range ch {
			e := ev
			app.Post(func() { handler(e) })
		}
	}()
}

// --- main loop --------------------------------------------------------------------

// Quit ends MainLoop with the given status.
func (app *App) Quit(code int) {
	app.quit = true
	app.quitCode = code
}

// MainLoop is XtAppMainLoop: dispatch X events, run posted input
// closures and fire timers until Quit.
// Each turn settles the screen: the Pump at its top dispatches the
// coalesced Exposes of everything the previous turn damaged. It
// returns the exit status passed to Quit.
func (app *App) MainLoop() int {
	app.loopGoID.Store(goid())
	defer app.loopGoID.Store(0)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for !app.quit {
		app.Pump()
		wait := app.runDueTimers()
		if app.quit {
			break
		}
		// One timer serves every turn; go.mod's go 1.22 timer semantics
		// need the stop-and-drain before Reset.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case fn := <-app.posted:
			app.drainPosted(fn)
		case <-timer.C:
		}
	}
	app.Pump()
	return app.quitCode
}

// drainPosted runs fn and the closures queued behind it when the turn
// began. Closures posted meanwhile wait for the next turn, so an input
// source that writes faster than the loop reads cannot hold off the
// repaint and the timers.
func (app *App) drainPosted(fn func()) {
	n := len(app.posted)
	fn()
	for ; n > 0; n-- {
		select {
		case fn := <-app.posted:
			fn()
		default:
			return
		}
	}
}
