package core

import (
	"fmt"
	"image/png"
	"os"
	"strconv"
	"strings"
	"time"

	"wafe/internal/tcl"
	"wafe/internal/xaw"
	"wafe/internal/xm"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

//go:generate go run ../../cmd/wafegen -spec ../../specs/wafe.spec -go commands_gen.go -ref ../../docs/reference.txt -tex ../../docs/reference.tex

// registerCommands installs the fixed Wafe commands from commandTable,
// which wafegen generates from specs/wafe.spec. Each row's trampoline
// converts the arguments by their spec types and calls the method
// below named like the command, so a method sees typed values and
// checks only what the types cannot say. SetCommandMeta wraps each
// command whose row carries a usage text in the interpreter's bounds
// check. A Go error a method returns becomes a Tcl error here, once.
func (w *Wafe) registerCommands() {
	for _, c := range commandTable {
		run := c.run
		w.Interp.RegisterCommand(c.meta.Name, func(_ *tcl.Interp, argv []string) (string, error) {
			res, err := run(w, argv)
			return res, tclError(err)
		})
		w.Interp.SetCommandMeta(c.meta)
	}
}

// tclError returns err as a Tcl error: a Go error from the toolkit
// becomes one with the same message.
func tclError(err error) error {
	if _, ok := err.(*tcl.Error); ok || err == nil {
		return err
	}
	return tcl.NewError("%s", err.Error())
}

// widgetArg converts a Widget argument, the name of a widget.
func (w *Wafe) widgetArg(name string) (*xt.Widget, error) {
	if wid := w.App.WidgetByName(name); wid != nil {
		return wid, nil
	}
	return nil, tcl.NewError("no widget named %q", name)
}

// widgetOf converts an argument typed with a widget class of the
// spec: the widget's class must be that class or a subclass of it, as
// XtIsSubclass checks.
func (w *Wafe) widgetOf(name, class string) (*xt.Widget, error) {
	wid, err := w.widgetArg(name)
	if err != nil {
		return nil, err
	}
	for c := wid.Class; c != nil; c = c.Super {
		if c.Name == class {
			return wid, nil
		}
	}
	return nil, tcl.NewError("widget %q is a %s, not a %s", name, wid.Class.Name, class)
}

// optArg returns argument i, or def when the call omits it.
func optArg(argv []string, i int, def string) string {
	if i < len(argv) {
		return argv[i]
	}
	return def
}

// boolResult renders a Boolean result as Tcl does, 1 or 0.
func boolResult(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// widgetName renders a Widget result: its name, or "" for none.
func widgetName(wid *xt.Widget) string {
	if wid == nil {
		return ""
	}
	return wid.Name
}

// window returns a realized widget's window.
func window(wid *xt.Widget) (*xproto.Window, error) {
	if win, ok := wid.Display().Lookup(wid.Window()); ok && wid.IsRealized() {
		return win, nil
	}
	return nil, tcl.NewError("widget %q is not realized", wid.Name)
}

// realize realizes a widget tree, the topLevel shell's by default.
func (w *Wafe) realize(wid *xt.Widget) error {
	if wid == nil {
		wid = w.TopLevel
	}
	wid.Realize()
	return nil
}

func (w *Wafe) destroyWidget(wid *xt.Widget) error {
	wid.Destroy()
	return nil
}

func (w *Wafe) manageChild(wid *xt.Widget) error {
	wid.Manage()
	return nil
}

func (w *Wafe) unmanageChild(wid *xt.Widget) error {
	wid.Unmanage()
	return nil
}

func (w *Wafe) setSensitive(wid *xt.Widget, sensitive bool) error {
	return wid.SetValues("sensitive", strconv.FormatBool(sensitive))
}

func (w *Wafe) isRealized(wid *xt.Widget) (bool, error) { return wid.IsRealized(), nil }

func (w *Wafe) isManaged(wid *xt.Widget) (bool, error) { return wid.IsManaged(), nil }

// nameToWidget resolves a slash- or dot-separated path below the
// reference widget (XtNameToWidget).
func (w *Wafe) nameToWidget(ref *xt.Widget, path string) (*xt.Widget, error) {
	cur := ref
	for _, part := range strings.FieldsFunc(path, func(r rune) bool { return r == '.' || r == '/' }) {
		var next *xt.Widget
		for _, c := range cur.Children() {
			if c.Name == part {
				next = c
				break
			}
		}
		if next == nil {
			return nil, tcl.NewError("widget %q has no descendant %q", ref.Name, part)
		}
		cur = next
	}
	return cur, nil
}

// translateCoords converts widget coordinates to root coordinates
// (XtTranslateCoords): "rx ry".
func (w *Wafe) translateCoords(wid *xt.Widget, x, y int) (string, error) {
	win, err := window(wid)
	if err != nil {
		return "", err
	}
	rx, ry := win.RootCoords(x, y)
	return fmt.Sprintf("%d %d", rx, ry), nil
}

// installAccelerators merges the source widget's accelerators into the
// destination's translations (XtInstallAccelerators).
func (w *Wafe) installAccelerators(dst, src *xt.Widget) error {
	var acc *xt.Translations
	if v, ok := src.Get(xt.QAccelerators); ok {
		acc, _ = v.(*xt.Translations)
	}
	if acc == nil || acc.Len() == 0 {
		return tcl.NewError("widget %q has no accelerators", src.Name)
	}
	// The accelerator actions resolve and run on the source widget.
	mergeTranslations(dst, acc.RetargetTo(src), xt.MergeAugment)
	return nil
}

// mergeTranslations merges t into the widget's translation table.
func mergeTranslations(wid *xt.Widget, t *xt.Translations, mode xt.MergeMode) {
	var cur *xt.Translations
	if v, ok := wid.Get(xt.QTranslations); ok {
		cur, _ = v.(*xt.Translations)
	}
	wid.SetResourceValue(xt.QTranslations, cur.Merge(t, mode))
	wid.UpdateInputMask()
}

func (w *Wafe) widgetChildren(wid *xt.Widget) ([]string, error) {
	var names []string
	for _, c := range wid.Children() {
		names = append(names, c.Name)
	}
	return names, nil
}

func (w *Wafe) widgetParent(wid *xt.Widget) (*xt.Widget, error) { return wid.Parent, nil }

func (w *Wafe) widgetClass(wid *xt.Widget) (string, error) { return wid.Class.Name, nil }

func (w *Wafe) setValues(wid *xt.Widget, pairs []string) error { return wid.SetValues(pairs...) }

func (w *Wafe) getValue(wid *xt.Widget, resource string) (string, error) {
	return wid.GetValue(resource)
}

// getValues fills a Tcl associative array with resource values — the
// paper's convention for functions returning structures: "The Wafe
// counterparts of these functions take a name of a Tcl associative
// array as an argument (instead of a pointer) and create entries in the
// associative array corresponding to the C-structure's components."
// Without explicit resources every declared resource is stored. The
// number of entries written is returned.
func (w *Wafe) getValues(wid *xt.Widget, array string, names []string) (int, error) {
	if len(names) == 0 {
		names = wid.ResourceNames()
	}
	for _, r := range names {
		v, err := wid.GetValue(r)
		if err != nil {
			return 0, err
		}
		if err := w.Interp.SetVar(array+"("+r+")", v); err != nil {
			return 0, err
		}
	}
	return len(names), nil
}

// mergeResources extends the per-display resource database.
func (w *Wafe) mergeResources(spec, value string, more []string) error {
	pairs := append([]string{spec, value}, more...)
	for i := 0; i < len(pairs); i += 2 {
		if err := w.App.DB.Enter(pairs[i], pairs[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// getResourceList implements the paper's value-passing convention: the
// element count is the result and the list lands in the variable the
// second argument names.
func (w *Wafe) getResourceList(wid *xt.Widget) (int, []string, error) {
	names := wid.ResourceNames()
	return len(names), names, nil
}

// callback binds a predefined callback function,
//
//	callback widget resourceName predefined shellName
//
// with predefined ∈ {none, exclusive, nonexclusive, popdown, position,
// positionCursor} — the paper's Predefined Callbacks table.
func (w *Wafe) callback(wid *xt.Widget, resource, predefined string, shell *xt.Widget, args []string) error {
	cb, err := w.predefinedCallback(predefined, shell, args)
	if err != nil {
		return err
	}
	return wid.AddCallback(resource, cb)
}

// predefinedCallback builds one entry of the predefined callbacks
// table. The callback looks the shell up by name each time it fires,
// so the shell may be destroyed and created anew in between.
func (w *Wafe) predefinedCallback(name string, shell *xt.Widget, extra []string) (xt.Callback, error) {
	var fire func(*xt.Widget) error
	switch name {
	case "none", "exclusive", "nonexclusive":
		kind, _ := xt.ParseGrabKind(name)
		fire = func(s *xt.Widget) error { return s.Popup(kind) }
	case "popdown":
		fire = (*xt.Widget).Popdown
	case "position":
		x, y := 0, 0
		if len(extra) >= 2 {
			var err error
			if x, err = tcl.ParseInt(extra[0]); err != nil {
				return xt.Callback{}, err
			}
			if y, err = tcl.ParseInt(extra[1]); err != nil {
				return xt.Callback{}, err
			}
		}
		fire = func(s *xt.Widget) error { return s.PositionShell(x, y) }
	case "positionCursor":
		fire = (*xt.Widget).PositionShellUnderPointer
	default:
		return xt.Callback{}, tcl.NewError("unknown predefined callback %q (want none, exclusive, nonexclusive, popdown, position or positionCursor)", name)
	}
	if shell == nil {
		return xt.Callback{}, tcl.NewError("no widget named \"\"")
	}
	if !shell.Class.Shell {
		return xt.Callback{}, tcl.NewError("widget %q is not a shell", shell.Name)
	}
	shellName := shell.Name
	return xt.Callback{Source: name + " " + shellName, Proc: func(*xt.Widget, xt.CallData) {
		if s := w.App.WidgetByName(shellName); s != nil {
			if err := fire(s); err != nil {
				w.reportScriptError("callback", s, err)
			}
		}
	}}, nil
}

func (w *Wafe) addCallback(wid *xt.Widget, resource, script string) error {
	return wid.AddCallback(resource, w.scriptCallback(script))
}

func (w *Wafe) removeAllCallbacks(wid *xt.Widget, resource string) error {
	return wid.RemoveAllCallbacks(resource)
}

func (w *Wafe) hasCallbacks(wid *xt.Widget, resource string) (bool, error) {
	return wid.HasCallbacks(resource), nil
}

func (w *Wafe) callCallbacks(wid *xt.Widget, resource string) error {
	wid.CallCallbacks(resource, nil)
	return nil
}

// action overrides, augments or replaces a widget's translation table.
func (w *Wafe) action(wid *xt.Widget, mode, translations string, more []string) error {
	m, err := xt.ParseMergeMode(mode)
	if err != nil {
		return err
	}
	t, err := xt.ParseTranslations(strings.Join(append([]string{translations}, more...), "\n"))
	if err != nil {
		return err
	}
	mergeTranslations(wid, t, m)
	return nil
}

func (w *Wafe) popup(shell *xt.Widget, kind xt.GrabKind) error { return shell.Popup(kind) }

func (w *Wafe) popdown(shell *xt.Widget) error { return shell.Popdown() }

// addTimeOut schedules a script and returns the id removeTimeOut takes.
func (w *Wafe) addTimeOut(ms int, source string) (string, error) {
	if ms < 0 {
		return "", tcl.NewError("bad interval \"%d\"", ms)
	}
	// Compile at registration; a malformed script still yields an
	// evaluable prefix that replays the parse error when it fires.
	script, _ := w.Interp.Compile(source)
	w.nextID++
	id := "timeout" + strconv.Itoa(w.nextID)
	t := w.App.AddTimeout(time.Duration(ms)*time.Millisecond, func() {
		delete(w.timers, id)
		if _, err := w.EvalScript(script); err != nil {
			w.reportScriptError("timeout", nil, err)
		}
	})
	w.timers[id] = t
	return id, nil
}

func (w *Wafe) removeTimeOut(id string) error {
	t, ok := w.timers[id]
	if !ok {
		return tcl.NewError("no timeout %q", id)
	}
	t.Remove()
	delete(w.timers, id)
	return nil
}

// ownSelection makes the widget own a selection; the script is
// evaluated when another client requests the value and its result is
// the selection value.
func (w *Wafe) ownSelection(wid *xt.Widget, sel, script string) error {
	ps := w.percentScript(script)
	wid.Display().OwnSelection(sel, wid.Window(), func(target string) (string, bool) {
		res, err := w.evalValues(ps, map[byte]string{'t': target})
		return res, err == nil
	})
	return nil
}

func (w *Wafe) disownSelection(wid *xt.Widget, sel string) error {
	wid.Display().DisownSelection(sel, wid.Window())
	return nil
}

func (w *Wafe) getSelectionValue(wid *xt.Widget, sel, target string) (string, error) {
	if v, ok := wid.Display().ConvertSelection(sel, target); ok {
		return v, nil
	}
	return "", tcl.NewError("selection %q has no value for target %q", sel, target)
}

// --- Athena functions -------------------------------------------------------

func (w *Wafe) listHighlight(wid *xt.Widget, index int) error {
	xaw.ListHighlight(wid, index)
	return nil
}

func (w *Wafe) listUnhighlight(wid *xt.Widget) error {
	xaw.ListUnhighlight(wid)
	return nil
}

func (w *Wafe) listChange(wid *xt.Widget, items []string, resize bool) error {
	xaw.ListChange(wid, items, resize)
	return nil
}

// listShowCurrent follows the count-plus-variable convention: it
// returns the index and stores the string in the named variable.
func (w *Wafe) listShowCurrent(wid *xt.Widget) (int, string, error) {
	cur := xaw.ListCurrent(wid)
	return cur.Index, cur.String, nil
}

func (w *Wafe) dialogGetValueString(wid *xt.Widget) (string, error) {
	return xaw.DialogValue(wid), nil
}

func (w *Wafe) scrollbarSetThumb(wid *xt.Widget, top, shown float64) error {
	xaw.ScrollbarSetThumb(wid, top, shown)
	return nil
}

func (w *Wafe) formAllowResize(wid *xt.Widget, allow bool) error {
	xaw.FormAllowResize(wid, allow)
	return nil
}

func (w *Wafe) stripChartSample(wid *xt.Widget, v float64) error {
	xaw.StripChartAddSample(wid, v)
	return nil
}

func (w *Wafe) viewportSetLocation(wid *xt.Widget, xf, yf float64) error {
	xaw.ViewportSetLocation(wid, xf, yf)
	return nil
}

// stripChartRun is one running sampler, stopped by stripChartStop or
// by the widget's destruction.
type stripChartRun struct{ stopped bool }

// stripChartStart begins periodic sampling: the widget's getValue
// callback script is evaluated every `update` seconds (Xaw semantics)
// and its result becomes the next sample.
func (w *Wafe) stripChartStart(wid *xt.Widget) error {
	script, err := wid.GetValue("getValue")
	if err != nil || strings.TrimSpace(script) == "" {
		return tcl.NewError("widget %q has no getValue callback", wid.Name)
	}
	if w.chartRuns == nil {
		w.chartRuns = make(map[string]*stripChartRun)
	}
	if run, ok := w.chartRuns[wid.Name]; ok {
		run.stopped = true // restart with current script
	}
	run := &stripChartRun{}
	w.chartRuns[wid.Name] = run
	interval := time.Duration(max(wid.Int(xaw.QUpdate), 1)) * time.Second
	compiled, _ := w.Interp.Compile(script)
	var tick func()
	tick = func() {
		if run.stopped || w.App.WidgetByName(wid.Name) != wid {
			return
		}
		res, err := w.EvalScript(compiled)
		if err != nil {
			w.reportScriptError("stripChart getValue", wid, err)
			return
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(res), 64)
		if err != nil {
			w.reportScriptError("stripChart getValue", wid, tcl.NewError("script result %q is not a number", res))
			return
		}
		xaw.StripChartAddSample(wid, v)
		w.App.AddTimeout(interval, tick)
	}
	// First sample fires immediately; subsequent ones on the interval.
	tick()
	return nil
}

func (w *Wafe) stripChartStop(name string) error {
	run, ok := w.chartRuns[name]
	if !ok {
		return tcl.NewError("no strip chart sampler running for widget")
	}
	run.stopped = true
	delete(w.chartRuns, name)
	return nil
}

// --- Motif functions ---------------------------------------------------------

func (w *Wafe) mCascadeButtonHighlight(wid *xt.Widget, highlight bool) error {
	xm.CascadeButtonHighlight(wid, highlight)
	return nil
}

func (w *Wafe) mCommandAppendValue(wid *xt.Widget, s string) error {
	xm.CommandAppendValue(wid, s)
	return nil
}

func (w *Wafe) mTextInsert(wid *xt.Widget, s string) error {
	xm.TextInsert(wid, s)
	return nil
}

// --- Wafe specifics ------------------------------------------------------------

// quit ends the event loop with the exit code.
func (w *Wafe) quit(code int) error {
	w.quitRequested = true
	w.exitCode = code
	w.App.Quit(code)
	return nil
}

func (w *Wafe) sync() error {
	w.App.Pump()
	return nil
}

// backend reports the backend lifecycle state as a flat list (state
// running pid 1234 restarts 2 ...); `state none` when no backend is
// under supervision — interactive and file mode, or a frontend wired
// without the Supervisor.
func (w *Wafe) backend() ([]string, error) {
	if w.BackendReport == nil {
		return []string{"state", "none"}, nil
	}
	return w.BackendReport(), nil
}

func (w *Wafe) widgetList() ([]string, error) { return w.App.WidgetNames(), nil }

// widgetTree lists the tree with classes and geometry, topLevel's by
// default.
func (w *Wafe) widgetTree(root *xt.Widget) (string, error) {
	if root == nil {
		root = w.TopLevel
	}
	var b strings.Builder
	var walk func(x *xt.Widget, depth int)
	walk = func(x *xt.Widget, depth int) {
		fmt.Fprintf(&b, "%s%s (%s) %dx%d+%d+%d\n",
			strings.Repeat("  ", depth), x.Name, x.Class.Name,
			x.Int(xt.QWidth), x.Int(xt.QHeight), x.Int(xt.QX), x.Int(xt.QY))
		for _, c := range x.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return strings.TrimRight(b.String(), "\n"), nil
}

// snapshot renders the widget tree as ASCII art — the headless
// stand-in for looking at the screen.
func (w *Wafe) snapshot(wid *xt.Widget) (string, error) {
	if wid == nil {
		wid = w.TopLevel
	}
	if _, err := window(wid); err != nil {
		return "", err
	}
	w.App.Pump()
	return wid.Display().Snapshot(wid.Window()), nil
}

// writeImage rasterizes a widget subtree to a PNG file.
func (w *Wafe) writeImage(wid *xt.Widget, file string) error {
	if _, err := window(wid); err != nil {
		return err
	}
	w.App.Pump()
	f, err := os.Create(file)
	if err != nil {
		return tcl.NewError("cannot create %q: %v", file, err)
	}
	defer f.Close()
	if err := png.Encode(f, wid.Display().RenderImage(wid.Window())); err != nil {
		return tcl.NewError("png encode: %v", err)
	}
	return nil
}

// sendClick synthesizes a full button click on a widget.
func (w *Wafe) sendClick(wid *xt.Widget, button, x, y int) error {
	if button < 1 || button > 5 {
		return tcl.NewError("bad button \"%d\"", button)
	}
	win, err := window(wid)
	if err != nil {
		return err
	}
	d := wid.Display()
	d.WarpPointer(win.RootCoords(x, y))
	d.InjectButtonPress(button)
	d.InjectButtonRelease(button)
	w.App.Pump()
	return nil
}

// sendKeys types text into a widget, moving the focus there first.
func (w *Wafe) sendKeys(wid *xt.Widget, text string) error {
	if _, err := window(wid); err != nil {
		return err
	}
	d := wid.Display()
	d.SetInputFocus(wid.Window())
	if err := d.TypeString(text); err != nil {
		return err
	}
	w.App.Pump()
	return nil
}

// sendExpose injects an Expose for the whole window or, given all four
// of x y w h, for one damage rectangle.
func (w *Wafe) sendExpose(wid *xt.Widget, x, y, ew, eh *int) error {
	var r [4]int
	switch {
	case eh != nil:
		r = [4]int{*x, *y, *ew, *eh}
	case x != nil:
		return tcl.NewError("wrong # args: should be \"sendExpose widget ?x y w h?\"")
	}
	if wid.IsRealized() {
		wid.Display().InjectExposeRect(wid.Window(), r[0], r[1], r[2], r[3])
	}
	return nil
}

func (w *Wafe) warpPointer(x, y int) error {
	w.App.Display().WarpPointer(x, y)
	w.App.Pump()
	return nil
}

func (w *Wafe) focusWidget(wid *xt.Widget) error {
	if _, err := window(wid); err != nil {
		return err
	}
	wid.Display().SetInputFocus(wid.Window())
	return nil
}

func (w *Wafe) displayList() ([]string, error) {
	names := make([]string, 0, len(w.App.Displays()))
	for _, d := range w.App.Displays() {
		names = append(names, d.Name)
	}
	return names, nil
}
