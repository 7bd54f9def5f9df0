package core

import (
	"fmt"
	"strings"

	"wafe/internal/obs"
	"wafe/internal/plotter"
	"wafe/internal/rdd"
	"wafe/internal/spec"
	"wafe/internal/tcl"
	"wafe/internal/xaw"
	"wafe/internal/xm"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// WidgetSet selects which widget library a Wafe binary is configured
// with. As in the paper, Athena and Motif widgets cannot be mixed
// freely: installing the Motif version removes asciiText and friends,
// and vice versa. The Plotter set is available in both.
type WidgetSet int

const (
	// SetAthena is the primarily supported library.
	SetAthena WidgetSet = iota
	// SetMotif is the mofe binary.
	SetMotif
	// SetBoth is a research configuration used by tests.
	SetBoth
)

// Config configures a Wafe instance.
type Config struct {
	AppName   string
	ClassName string
	// DisplayName names the X display (the -display argument).
	DisplayName string
	// Set selects Athena or Motif.
	Set WidgetSet
	// TestDisplay uses a private display (tests).
	TestDisplay bool
	// DisplayNamespace, when non-empty, scopes every display this
	// instance opens (primary and secondary) under the namespace —
	// serve-mode sessions pass their session id so colliding display
	// names across sessions stay isolated. Overrides DisplayName.
	DisplayNamespace string
}

// Wafe couples the Tcl interpreter with the Xt application context and
// registers every Wafe command. One Wafe instance is one frontend
// process.
type Wafe struct {
	Interp *tcl.Interp
	App    *xt.App

	// TopLevel is the automatically created application shell, "a top
	// level shell automatically created in every Wafe program".
	TopLevel *xt.Widget

	// Metrics is the observability registry, nil until
	// EnableObservability runs (the statistics/traceOn commands enable
	// it on demand, as do the --metrics-dump and --debug-addr flags).
	// While nil every instrumented hot path costs one pointer check.
	Metrics *obs.Metrics

	// Terminal receives the lines meant for the person at the
	// frontend's terminal, never for the backend: echoed traces, failed
	// callback, action and timeout scripts, and dispatch errors. New
	// points it at standard output; the frontend points it at its
	// terminal.
	Terminal func(string)

	// TraceRingSize, when positive, configures the trace/span ring
	// capacity applied when observability is (lazily) enabled — the
	// --trace-ring flag lands here before any traceOn runs.
	TraceRingSize int

	// Flight, when non-nil, is attached to the registry at enable time
	// so the anomaly trip sites can dump through it (--flight-dir).
	Flight *obs.FlightRecorder

	// BackendReport, when set by the frontend layer, supplies the
	// `backend` command's lifecycle report as a flat name/value list
	// (state, pid, restarts, last exit class/status, uptime). Nil means
	// no backend is under lifecycle supervision.
	BackendReport func() []string

	cfg Config

	// classes maps creation-command name → widget class.
	classes map[string]*xt.Class

	timers    map[string]*xt.Timer
	nextID    int
	chartRuns map[string]*stripChartRun

	// profiler holds the Tcl profiler across a profileOn/profileOff
	// window (and after it, for profileDump); nil before the first
	// profileOn.
	profiler *obs.Profiler

	quitRequested bool
	exitCode      int
}

// New creates a Wafe instance: Tcl interpreter, Xt app context, the
// widget-set command bindings, the Wafe converters and the topLevel
// shell.
func New(cfg Config) (*Wafe, error) {
	if cfg.AppName == "" {
		cfg.AppName = "wafe"
	}
	if cfg.ClassName == "" {
		cfg.ClassName = "Wafe"
	}
	var app *xt.App
	switch {
	case cfg.TestDisplay:
		app = xt.NewTestApp(cfg.AppName)
		app.ClassName = cfg.ClassName
	case cfg.DisplayNamespace != "":
		app = xt.NewSessionApp(cfg.AppName, cfg.ClassName, cfg.DisplayNamespace)
	default:
		app = xt.NewApp(cfg.AppName, cfg.ClassName, cfg.DisplayName)
	}
	w := &Wafe{
		Interp:  tcl.New(),
		App:     app,
		cfg:     cfg,
		classes: make(map[string]*xt.Class),
		timers:  make(map[string]*xt.Timer),
	}
	w.Terminal = func(line string) { fmt.Println(line) }
	// An action the translations name but nothing binds is reported as
	// a failed command is.
	app.ErrorHandler = func(err error) { w.Terminal("wafe: " + err.Error()) }
	w.registerConverters()
	w.registerWidgetSet()
	w.registerCommands()
	w.registerActions()
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		return nil, err
	}
	w.TopLevel = top
	return w, nil
}

// NewTest returns a Wafe on a private display with both widget sets.
//
//wafe:seam the constructor of every test that needs a session
func NewTest() *Wafe {
	w, err := New(Config{TestDisplay: true, Set: SetBoth})
	if err != nil {
		panic(err)
	}
	return w
}

// EnableObservability creates the metrics registry (idempotently) and
// threads it through every layer: interpreter, event loop, and the
// protocol displays. It returns the registry.
func (w *Wafe) EnableObservability() *obs.Metrics {
	return w.EnableObservabilityWith(nil)
}

// EnableObservabilityWith threads a caller-provided registry through
// every layer — the serve layer passes the per-session registry it
// created in the ServerMetrics so aggregate and session views stay
// coherent. A nil registry allocates a fresh one. Idempotent: once a
// registry is attached, it wins.
func (w *Wafe) EnableObservabilityWith(m *obs.Metrics) *obs.Metrics {
	if w.Metrics != nil {
		return w.Metrics
	}
	m = obs.NewOr(m)
	w.Metrics = m
	if w.TraceRingSize > 0 {
		m.Trace.SetRingSize(w.TraceRingSize)
	}
	if w.Flight != nil && m.Flight == nil {
		m.Flight = w.Flight
	}
	w.Interp.SetMetrics(m)
	w.App.SetMetrics(m)
	m.Trace.SetSink(func(line string) { w.Terminal(line) })
	return m
}

// Close ends the session as Tcl ends at exit: it flushes and closes
// the open channels. It then releases the process-global resources
// this instance holds: its virtual displays leave the xproto registry
// and the drag-and-drop context map drops the app. Must run after the
// event loop has stopped; sessions call it when they retire.
func (w *Wafe) Close() {
	w.Interp.CloseAllChannels()
	rdd.Release(w.App)
	w.App.Close()
}

// QuitRequested reports whether the quit command ran.
func (w *Wafe) QuitRequested() bool { return w.quitRequested }

// ExitCode returns the requested exit status.
func (w *Wafe) ExitCode() int { return w.exitCode }

// Eval evaluates a Wafe/Tcl command string. It does not settle the
// screen: the widgets a script updates repaint when the event loop
// next pumps, or when a command that reads the screen runs.
func (w *Wafe) Eval(script string) (string, error) {
	res, err := w.Interp.Eval(script)
	if code, isExit := tcl.IsExit(err); isExit {
		w.quit(code)
		return res, nil
	}
	return res, err
}

// EvalScript evaluates a pre-compiled script; otherwise identical to
// Eval. Callback and timeout scripts compiled at registration time run
// through here so each firing skips the parse.
func (w *Wafe) EvalScript(s *tcl.Script) (string, error) {
	res, err := w.Interp.EvalScript(s)
	if code, isExit := tcl.IsExit(err); isExit {
		w.quit(code)
		return res, nil
	}
	return res, err
}

// WidgetSetClasses returns the classes for the configured set.
func (w *Wafe) WidgetSetClasses() []*xt.Class {
	var classes []*xt.Class
	switch w.cfg.Set {
	case SetAthena:
		classes = xaw.AllClasses()
	case SetMotif:
		classes = xm.AllClasses()
	case SetBoth:
		classes = append(xaw.AllClasses(), xm.AllClasses()...)
	}
	classes = append(classes, plotter.AllClasses()...)
	classes = append(classes,
		xt.ApplicationShellClass,
		xt.TopLevelShellClass,
		xt.TransientShellClass,
		xt.OverrideShellClass,
	)
	return classes
}

// registerWidgetSet installs one creation command per widget class,
// derived with the naming rule (Toggle → "toggle Name Father ..."),
// with metadata whose usage text makes the interpreter check its
// argument count.
//
// One derived name collides with a Tcl built-in: the Athena List class
// yields "list". The command therefore dispatches on its second
// argument — when it names an existing widget (or a display, for
// shells) the call is a widget creation, otherwise the original Tcl
// command runs. "list year 1994" stays a Tcl list; "list hits form"
// creates a List widget. It keeps the built-in's metadata.
func (w *Wafe) registerWidgetSet() {
	for _, class := range w.WidgetSetClasses() {
		cmdName := CreationCommandName(class.Name)
		w.classes[cmdName] = class
		cls := class
		if prev, collides := w.Interp.Command(cmdName); collides {
			w.Interp.RegisterCommand(cmdName, func(in *tcl.Interp, argv []string) (string, error) {
				if len(argv) >= 3 && (w.App.WidgetByName(argv[2]) != nil || cls.Shell) {
					name, err := w.cmdCreateWidget(cls, argv)
					return name, tclError(err)
				}
				return prev(in, argv)
			})
			continue
		}
		w.Interp.RegisterCommand(cmdName, func(in *tcl.Interp, argv []string) (string, error) {
			name, err := w.cmdCreateWidget(cls, argv)
			return name, tclError(err)
		})
		w.Interp.SetCommandMeta(tcl.CommandMeta{
			Name:    cmdName,
			MinArgs: 2,
			MaxArgs: -1,
			Usage:   cmdName + " " + spec.CreationUsageArgs,
			Options: []string{"-unmanaged", "unmanaged"},
		})
	}
	if w.cfg.Set == SetMotif || w.cfg.Set == SetBoth {
		xm.RegisterConverters(w.App)
	}
}

// CreationClasses returns a copy of the creation-command → widget
// class table for the configured widget set (static analysis reads
// it to validate resource names per class).
func (w *Wafe) CreationClasses() map[string]*xt.Class {
	out := make(map[string]*xt.Class, len(w.classes))
	for name, c := range w.classes {
		out[name] = c
	}
	return out
}

// cmdCreateWidget implements every creation command:
//
//	class Name Father ?-unmanaged? ?resource value?...
//
// For shells, Father may name a display instead of a widget.
func (w *Wafe) cmdCreateWidget(class *xt.Class, argv []string) (string, error) {
	cmd := argv[0]
	name, father := argv[1], argv[2]
	rest := argv[3:]
	managed := true
	if len(rest) > 0 && (rest[0] == "-unmanaged" || rest[0] == "unmanaged") {
		managed = false
		rest = rest[1:]
	}
	if len(rest)%2 != 0 {
		return "", tcl.NewError("%s: resource arguments must come in attribute-value pairs", cmd)
	}
	args := make(map[string]string, len(rest)/2)
	for i := 0; i+1 < len(rest); i += 2 {
		args[rest[i]] = rest[i+1]
	}
	parent := w.App.WidgetByName(father)
	if parent == nil {
		if !class.Shell {
			return "", tcl.NewError("no widget named %q", father)
		}
		// Father is a display specification: applicationShell top2 dec4:0
		d := w.App.OpenSecondDisplay(father)
		shell, err := w.App.CreateWidget(name, class, nil, args, false)
		if err != nil {
			return "", err
		}
		return name, shell.SetDisplay(d)
	}
	// Shells under a widget parent stay unmanaged (popups).
	if class.Shell {
		managed = false
	}
	_, err := w.App.CreateWidget(name, class, parent, args, managed)
	return name, err
}

// registerConverters installs the Wafe converter extensions: the
// Callback converter, the extended Bitmap/Pixmap converter (XBM then
// XPM) and — for Motif builds — XmString/FontList (done in
// registerWidgetSet).
func (w *Wafe) registerConverters() {
	w.App.RegisterConverter(xt.TCallback, func(_ *xt.App, _ *xt.Widget, v string) (any, error) {
		script := strings.TrimSpace(v)
		if script == "" {
			return xt.CallbackList(nil), nil
		}
		return xt.CallbackList{w.scriptCallback(script)}, nil
	})
	pixmapConv := func(_ *xt.App, _ *xt.Widget, v string) (any, error) {
		s := strings.TrimSpace(v)
		if s == "" || s == "None" {
			return (*xproto.Pixmap)(nil), nil
		}
		// Wafe's extended converter: try XBM, then XPM.
		pm, err := xproto.ParseBitmapOrPixmap(s)
		if err != nil {
			return nil, err
		}
		return pm, nil
	}
	w.App.RegisterConverter(xt.TPixmap, pixmapConv)
	w.App.RegisterConverter(xt.TBitmap, pixmapConv)
}

// scriptCallback wraps a Tcl script as an Xt callback. The script is
// scanned for percent codes once, here; a static script is compiled
// once too, so each invocation evaluates the cached parse directly,
// while scripts with codes substitute per event and evaluate the
// expanded text, which the interpreter caches once it repeats.
func (w *Wafe) scriptCallback(script string) xt.Callback {
	ps := w.percentScript(script)
	return xt.Callback{
		Source:   script,
		Compiled: ps,
		Proc: func(widget *xt.Widget, data xt.CallData) {
			var err error
			if s := ps.Compiled(); s != nil {
				w.traceFired("callback", widget, s.Source)
				_, err = w.EvalScript(s)
			} else {
				expanded := ps.ExpandCallback(widget, data)
				w.traceFired("callback", widget, expanded)
				_, err = w.Eval(expanded)
			}
			if err != nil {
				w.reportScriptError("callback", widget, err)
			}
		},
	}
}

// reportScriptError writes a failed script's error on the terminal;
// the backend is not told.
func (w *Wafe) reportScriptError(kind string, widget *xt.Widget, err error) {
	if code, isExit := tcl.IsExit(err); isExit {
		w.quit(code)
		return
	}
	name := "?"
	if widget != nil {
		name = widget.Name
	}
	w.Terminal(fmt.Sprintf("wafe: %s error in widget %s: %v", kind, name, err))
}

// registerActions installs the global exec action: "Wafe registers a
// global action exec which accepts any Wafe command as argument".
func (w *Wafe) registerActions() {
	w.App.AddAction("exec", func(widget *xt.Widget, ev *xproto.Event, params []string) {
		// The params of a translation binding never change, so the
		// scanned (and, for static scripts, compiled) form is cached on
		// the binding itself via its Compiled slot.
		var ps *PercentScript
		if call := w.App.DispatchedCall(); call != nil {
			ps, _ = call.Compiled.(*PercentScript)
			if ps == nil {
				ps = w.percentScript(strings.Join(params, ","))
				call.Compiled = ps
			}
		} else {
			ps = w.percentScript(strings.Join(params, ","))
		}
		var err error
		if s := ps.Compiled(); s != nil {
			w.traceFired("action", widget, s.Source)
			_, err = w.EvalScript(s)
		} else {
			expanded := ps.ExpandAction(widget, ev)
			w.traceFired("action", widget, expanded)
			_, err = w.Eval(expanded)
		}
		if err != nil {
			w.reportScriptError("action", widget, err)
		}
	})
}

// traceFired records a fired callback/action script as a script
// instant under the callback or action span, and echoes it, when
// tracing is on; the text is only assembled in that case.
func (w *Wafe) traceFired(kind string, widget *xt.Widget, script string) {
	m := w.Metrics
	if m == nil || !m.Trace.Enabled() {
		return
	}
	name := "?"
	if widget != nil {
		name = widget.Name
	}
	text := name + ": " + script
	m.Trace.Instant("script", text)
	m.Trace.Echo(kind, text)
}
