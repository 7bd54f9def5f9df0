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
	"wafe/internal/xt"
)

//go:generate go run ../../cmd/wafegen -spec ../../specs/wafe.spec -go commands_gen.go -ref ../../docs/reference.txt -tex ../../docs/reference.tex

// registerCommands installs the fixed Wafe commands from commandTable,
// which wafegen generates from specs/wafe.spec. SetCommandMeta wraps
// each command whose row carries a usage text in the interpreter's
// bounds check, so the methods below see only argument counts within
// their bounds; a few check a finer shape themselves.
func (w *Wafe) registerCommands() {
	for _, c := range commandTable {
		run := c.run
		w.Interp.RegisterCommand(c.meta.Name, func(_ *tcl.Interp, argv []string) (string, error) {
			return run(w, argv)
		})
		w.Interp.SetCommandMeta(c.meta)
	}
}

func (w *Wafe) cmdRealize(argv []string) (string, error) {
	target := w.TopLevel
	if len(argv) == 2 {
		t, err := w.widgetArg(argv[1])
		if err != nil {
			return "", err
		}
		target = t
	}
	target.Realize()
	return "", nil
}

func (w *Wafe) cmdDestroyWidget(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	wid.Destroy()
	return "", nil
}

func (w *Wafe) cmdManageChild(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	wid.Manage()
	return "", nil
}

func (w *Wafe) cmdUnmanageChild(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	wid.Unmanage()
	return "", nil
}

func (w *Wafe) cmdSetSensitive(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return "", wid.SetValues("sensitive", argv[2])
}

func (w *Wafe) cmdIsRealized(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if wid.IsRealized() {
		return "1", nil
	}
	return "0", nil
}

func (w *Wafe) cmdIsManaged(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if wid.IsManaged() {
		return "1", nil
	}
	return "0", nil
}

// cmdNameToWidget resolves a slash/dot path relative to a reference
// widget (XtNameToWidget): nameToWidget ref path.
func (w *Wafe) cmdNameToWidget(argv []string) (string, error) {
	ref, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	cur := ref
	path := strings.FieldsFunc(argv[2], func(r rune) bool { return r == '.' || r == '/' })
	for _, part := range path {
		if part == "" {
			continue
		}
		var next *xt.Widget
		for _, c := range cur.Children() {
			if c.Name == part {
				next = c
				break
			}
		}
		if next == nil {
			return "", tcl.NewError("widget %q has no descendant %q", argv[1], part)
		}
		cur = next
	}
	return cur.Name, nil
}

// cmdTranslateCoords converts widget-relative coordinates to root
// coordinates (XtTranslateCoords): translateCoords widget x y → "rx ry".
func (w *Wafe) cmdTranslateCoords(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if !wid.IsRealized() {
		return "", tcl.NewError("widget %q is not realized", argv[1])
	}
	x, err1 := strconv.Atoi(argv[2])
	y, err2 := strconv.Atoi(argv[3])
	if err1 != nil || err2 != nil {
		return "", tcl.NewError("bad coordinates %q %q", argv[2], argv[3])
	}
	win, ok := wid.Display().Lookup(wid.Window())
	if !ok {
		return "", tcl.NewError("widget %q has no window", argv[1])
	}
	rx, ry := win.RootCoords(x, y)
	return fmt.Sprintf("%d %d", rx, ry), nil
}

// cmdInstallAccelerators merges the source widget's accelerators
// resource into the destination's translations
// (XtInstallAccelerators): installAccelerators destination source.
func (w *Wafe) cmdInstallAccelerators(argv []string) (string, error) {
	dst, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	src, err := w.widgetArg(argv[2])
	if err != nil {
		return "", err
	}
	var acc *xt.Translations
	if v, ok := src.Get("accelerators"); ok {
		acc, _ = v.(*xt.Translations)
	}
	if acc == nil || acc.Len() == 0 {
		return "", tcl.NewError("widget %q has no accelerators", argv[2])
	}
	var cur *xt.Translations
	if v, ok := dst.Get("translations"); ok {
		cur, _ = v.(*xt.Translations)
	}
	// The accelerator actions resolve and run on the source widget.
	dst.SetResourceValue("translations", cur.Merge(acc.RetargetTo(src), xt.MergeAugment))
	dst.UpdateInputMask()
	return "", nil
}

func (w *Wafe) cmdWidgetChildren(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	var names []string
	for _, c := range wid.Children() {
		names = append(names, c.Name)
	}
	return tcl.FormatList(names), nil
}

func (w *Wafe) cmdWidgetParent(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if wid.Parent == nil {
		return "", nil
	}
	return wid.Parent.Name, nil
}

func (w *Wafe) cmdWidgetClass(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	return wid.Class.Name, nil
}

func (w *Wafe) cmdSetValues(argv []string) (string, error) {
	// The bounds admit any count after the widget; the resources and
	// values must also pair up.
	if len(argv)%2 != 0 {
		return "", tcl.NewError("wrong # args: should be \"setValues widget ?resource value ...?\"")
	}
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if err := wid.SetValues(argv[2:]...); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

func (w *Wafe) cmdGetValue(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	v, err := wid.GetValue(argv[2])
	if err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return v, nil
}

// cmdGetValues fills a Tcl associative array with resource values —
// the paper's convention for functions returning structures: "The Wafe
// counterparts of these functions take a name of a Tcl associative
// array as an argument (instead of a pointer) and create entries in the
// associative array corresponding to the C-structure's components."
//
//	getValues widget arrayName ?resource ...?
//
// Without explicit resources every declared resource is stored. The
// number of entries written is returned.
func (w *Wafe) cmdGetValues(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	arrName := argv[2]
	names := argv[3:]
	if len(names) == 0 {
		names = wid.ResourceNames()
	}
	count := 0
	for _, r := range names {
		v, err := wid.GetValue(r)
		if err != nil {
			return "", tcl.NewError("%s", err.Error())
		}
		if err := w.Interp.SetVar(arrName+"("+r+")", v); err != nil {
			return "", err
		}
		count++
	}
	return strconv.Itoa(count), nil
}

// cmdMergeResources extends the per-display resource database:
// mergeResources spec value ?spec value ...?
func (w *Wafe) cmdMergeResources(argv []string) (string, error) {
	// Beyond the bounds, specs and values must pair up.
	if len(argv)%2 == 0 {
		return "", tcl.NewError("wrong # args: should be \"mergeResources spec value ?spec value ...?\"")
	}
	for i := 1; i+1 < len(argv); i += 2 {
		if err := w.App.DB.Enter(argv[i], argv[i+1]); err != nil {
			return "", tcl.NewError("%s", err.Error())
		}
	}
	return "", nil
}

// cmdGetResourceList implements the paper's value-passing convention:
// the element count is the return value and the list lands in a Tcl
// variable named by the second argument.
func (w *Wafe) cmdGetResourceList(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	names := wid.ResourceNames()
	if err := w.Interp.SetVar(argv[2], tcl.FormatList(names)); err != nil {
		return "", err
	}
	return strconv.Itoa(len(names)), nil
}

// cmdCallback binds a predefined callback function:
//
//	callback widget resourceName predefined shellName
//
// with predefined ∈ {none, exclusive, nonexclusive, popdown, position,
// positionCursor} — the paper's Predefined Callbacks table.
func (w *Wafe) cmdCallback(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	resource, predefined := argv[2], argv[3]
	var shellName string
	var extra []string
	if len(argv) >= 5 {
		shellName = argv[4]
		extra = argv[5:]
	}
	cb, err := w.predefinedCallback(predefined, shellName, extra)
	if err != nil {
		return "", err
	}
	if err := wid.AddCallback(resource, cb); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

// predefinedCallback builds one entry of the predefined callbacks
// table.
func (w *Wafe) predefinedCallback(name, shellName string, extra []string) (xt.Callback, error) {
	shell := func() (*xt.Widget, error) {
		s := w.App.WidgetByName(shellName)
		if s == nil {
			return nil, tcl.NewError("no widget named %q", shellName)
		}
		if !s.Class.Shell {
			return nil, tcl.NewError("widget %q is not a shell", shellName)
		}
		return s, nil
	}
	source := strings.TrimSpace(name + " " + shellName)
	switch name {
	case "none", "exclusive", "nonexclusive":
		kind, _ := xt.ParseGrabKind(name)
		if _, err := shell(); err != nil {
			return xt.Callback{}, err
		}
		return xt.Callback{Source: source, Proc: func(*xt.Widget, xt.CallData) {
			if s, err := shell(); err == nil {
				if err := s.Popup(kind); err != nil {
					w.reportScriptError("popup", s, err)
				}
			}
		}}, nil
	case "popdown":
		if _, err := shell(); err != nil {
			return xt.Callback{}, err
		}
		return xt.Callback{Source: source, Proc: func(*xt.Widget, xt.CallData) {
			if s, err := shell(); err == nil {
				if err := s.Popdown(); err != nil {
					w.reportScriptError("popdown", s, err)
				}
			}
		}}, nil
	case "position":
		if _, err := shell(); err != nil {
			return xt.Callback{}, err
		}
		x, y := 0, 0
		if len(extra) >= 2 {
			var errX, errY error
			x, errX = strconv.Atoi(extra[0])
			y, errY = strconv.Atoi(extra[1])
			if errX != nil || errY != nil {
				return xt.Callback{}, tcl.NewError("position: bad coordinates %v", extra)
			}
		}
		return xt.Callback{Source: source, Proc: func(*xt.Widget, xt.CallData) {
			if s, err := shell(); err == nil {
				_ = s.PositionShell(x, y)
			}
		}}, nil
	case "positionCursor":
		if _, err := shell(); err != nil {
			return xt.Callback{}, err
		}
		return xt.Callback{Source: source, Proc: func(*xt.Widget, xt.CallData) {
			if s, err := shell(); err == nil {
				_ = s.PositionShellUnderPointer()
			}
		}}, nil
	}
	return xt.Callback{}, tcl.NewError("unknown predefined callback %q (want none, exclusive, nonexclusive, popdown, position or positionCursor)", name)
}

func (w *Wafe) cmdAddCallback(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if err := wid.AddCallback(argv[2], w.scriptCallback(argv[3])); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

func (w *Wafe) cmdRemoveAllCallbacks(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if err := wid.RemoveAllCallbacks(argv[2]); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

func (w *Wafe) cmdHasCallbacks(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if wid.HasCallbacks(argv[2]) {
		return "1", nil
	}
	return "0", nil
}

func (w *Wafe) cmdCallCallbacks(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	wid.CallCallbacks(argv[2], nil)
	return "", nil
}

// cmdAction overrides/augments/replaces a widget's translation table:
//
//	action widget mode translation ?translation ...?
func (w *Wafe) cmdAction(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	mode, err := xt.ParseMergeMode(argv[2])
	if err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	nt, err := xt.ParseTranslations(strings.Join(argv[3:], "\n"))
	if err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	var cur *xt.Translations
	if v, ok := wid.Get("translations"); ok {
		cur, _ = v.(*xt.Translations)
	}
	wid.SetResourceValue("translations", cur.Merge(nt, mode))
	wid.UpdateInputMask()
	return "", nil
}

func (w *Wafe) cmdPopup(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	kind := xt.GrabNone
	if len(argv) == 3 {
		k, err := xt.ParseGrabKind(argv[2])
		if err != nil {
			return "", tcl.NewError("%s", err.Error())
		}
		kind = k
	}
	if err := wid.Popup(kind); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

func (w *Wafe) cmdPopdown(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if err := wid.Popdown(); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

// cmdAddTimeOut schedules a script: addTimeOut milliseconds script → id.
func (w *Wafe) cmdAddTimeOut(argv []string) (string, error) {
	ms, err := strconv.Atoi(argv[1])
	if err != nil || ms < 0 {
		return "", tcl.NewError("bad interval %q", argv[1])
	}
	// Compile at registration; a malformed script still yields an
	// evaluable prefix that replays the parse error when it fires.
	script, _ := w.Interp.Compile(argv[2])
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

func (w *Wafe) cmdRemoveTimeOut(argv []string) (string, error) {
	t, ok := w.timers[argv[1]]
	if !ok {
		return "", tcl.NewError("no timeout %q", argv[1])
	}
	t.Remove()
	delete(w.timers, argv[1])
	return "", nil
}

// cmdOwnSelection makes the widget own a selection; the script is
// evaluated when another client requests the value and its result is
// the selection value: ownSelection widget selection script.
func (w *Wafe) cmdOwnSelection(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	sel, ps := argv[2], w.percentScript(argv[3])
	wid.Display().OwnSelection(sel, wid.Window(), func(target string) (string, bool) {
		res, err := w.evalValues(ps, map[byte]string{'t': target})
		if err != nil {
			return "", false
		}
		return res, true
	})
	return "", nil
}

func (w *Wafe) cmdDisownSelection(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	wid.Display().DisownSelection(argv[2], wid.Window())
	return "", nil
}

func (w *Wafe) cmdGetSelectionValue(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	target := "STRING"
	if len(argv) == 4 {
		target = argv[3]
	}
	v, ok := wid.Display().ConvertSelection(argv[2], target)
	if !ok {
		return "", tcl.NewError("selection %q has no value for target %q", argv[2], target)
	}
	return v, nil
}

// --- Athena functions -------------------------------------------------------

func (w *Wafe) xawWidgetArg(name string, class *xt.Class) (*xt.Widget, error) {
	wid, err := w.widgetArg(name)
	if err != nil {
		return nil, err
	}
	if !wid.Class.IsSubclassOf(class) {
		return nil, tcl.NewError("widget %q is a %s, not a %s", name, wid.Class.Name, class.Name)
	}
	return wid, nil
}

func (w *Wafe) cmdListHighlight(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.ListClass)
	if err != nil {
		return "", err
	}
	idx, err := strconv.Atoi(argv[2])
	if err != nil {
		return "", tcl.NewError("bad index %q", argv[2])
	}
	xaw.ListHighlight(wid, idx)
	return "", nil
}

func (w *Wafe) cmdListUnhighlight(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.ListClass)
	if err != nil {
		return "", err
	}
	xaw.ListUnhighlight(wid)
	return "", nil
}

func (w *Wafe) cmdListChange(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.ListClass)
	if err != nil {
		return "", err
	}
	items, err := tcl.ParseList(argv[2])
	if err != nil {
		return "", err
	}
	resize := true
	if len(argv) == 4 {
		b, err := tcl.ParseBool(argv[3])
		if err != nil {
			return "", err
		}
		resize = b
	}
	xaw.ListChange(wid, items, resize)
	return "", nil
}

// cmdListShowCurrent follows the count-plus-variable convention: it
// returns the index and stores the string in the named variable.
func (w *Wafe) cmdListShowCurrent(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.ListClass)
	if err != nil {
		return "", err
	}
	cur := xaw.ListCurrent(wid)
	if err := w.Interp.SetVar(argv[2], cur.String); err != nil {
		return "", err
	}
	return strconv.Itoa(cur.Index), nil
}

func (w *Wafe) cmdDialogGetValueString(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.DialogClass)
	if err != nil {
		return "", err
	}
	return xaw.DialogValue(wid), nil
}

func (w *Wafe) cmdScrollbarSetThumb(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.ScrollbarClass)
	if err != nil {
		return "", err
	}
	top, err1 := strconv.ParseFloat(argv[2], 64)
	shown, err2 := strconv.ParseFloat(argv[3], 64)
	if err1 != nil || err2 != nil {
		return "", tcl.NewError("bad thumb values %q %q", argv[2], argv[3])
	}
	xaw.ScrollbarSetThumb(wid, top, shown)
	return "", nil
}

func (w *Wafe) cmdFormAllowResize(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.FormClass)
	if err != nil {
		return "", err
	}
	allow, err := tcl.ParseBool(argv[2])
	if err != nil {
		return "", err
	}
	xaw.FormAllowResize(wid, allow)
	return "", nil
}

func (w *Wafe) cmdStripChartSample(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.StripChartClass)
	if err != nil {
		return "", err
	}
	v, err := strconv.ParseFloat(argv[2], 64)
	if err != nil {
		return "", tcl.NewError("bad sample %q", argv[2])
	}
	xaw.StripChartAddSample(wid, v)
	return "", nil
}

// cmdViewportSetLocation implements XawViewportSetLocation:
// viewportSetLocation widget xFraction yFraction.
func (w *Wafe) cmdViewportSetLocation(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.ViewportClass)
	if err != nil {
		return "", err
	}
	xf, err1 := strconv.ParseFloat(argv[2], 64)
	yf, err2 := strconv.ParseFloat(argv[3], 64)
	if err1 != nil || err2 != nil {
		return "", tcl.NewError("bad fractions %q %q", argv[2], argv[3])
	}
	xaw.ViewportSetLocation(wid, xf, yf)
	return "", nil
}

// stripCharts tracks the running samplers (stopped by stripChartStop
// or widget destruction).
var noStripChart = tcl.NewError("no strip chart sampler running for widget")

type stripChartRun struct{ stopped bool }

// cmdStripChartStart begins periodic sampling: the widget's getValue
// callback script is evaluated every `update` seconds (Xaw semantics)
// and its result becomes the next sample.
func (w *Wafe) cmdStripChartStart(argv []string) (string, error) {
	wid, err := w.xawWidgetArg(argv[1], xaw.StripChartClass)
	if err != nil {
		return "", err
	}
	script, err := wid.GetValue("getValue")
	if err != nil || strings.TrimSpace(script) == "" {
		return "", tcl.NewError("widget %q has no getValue callback", argv[1])
	}
	if w.chartRuns == nil {
		w.chartRuns = make(map[string]*stripChartRun)
	}
	if run, ok := w.chartRuns[wid.Name]; ok {
		run.stopped = true // restart with current script
	}
	run := &stripChartRun{}
	w.chartRuns[wid.Name] = run
	interval := time.Duration(maxIntC(wid.Int("update"), 1)) * time.Second
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
	return "", nil
}

func (w *Wafe) cmdStripChartStop(argv []string) (string, error) {
	run, ok := w.chartRuns[argv[1]]
	if !ok {
		return "", noStripChart
	}
	run.stopped = true
	delete(w.chartRuns, argv[1])
	return "", nil
}

func maxIntC(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Motif functions ---------------------------------------------------------

func (w *Wafe) cmdMCascadeButtonHighlight(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if wid.Class != xm.XmCascadeButtonClass {
		return "", tcl.NewError("widget %q is not an XmCascadeButton", argv[1])
	}
	b, err := tcl.ParseBool(argv[2])
	if err != nil {
		return "", err
	}
	xm.CascadeButtonHighlight(wid, b)
	return "", nil
}

func (w *Wafe) cmdMCommandAppendValue(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if !wid.Class.IsSubclassOf(xm.XmCommandClass) {
		return "", tcl.NewError("widget %q is not an XmCommand", argv[1])
	}
	xm.CommandAppendValue(wid, argv[2])
	return "", nil
}

func (w *Wafe) cmdMTextInsert(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if !wid.Class.IsSubclassOf(xm.XmTextClass) {
		return "", tcl.NewError("widget %q is not an XmText", argv[1])
	}
	xm.TextInsert(wid, argv[2])
	return "", nil
}

// --- Wafe specifics ------------------------------------------------------------

func (w *Wafe) cmdQuit(argv []string) (string, error) {
	code := 0
	if len(argv) == 2 {
		c, err := strconv.Atoi(argv[1])
		if err != nil {
			return "", tcl.NewError("bad exit code %q", argv[1])
		}
		code = c
	}
	w.quitRequested = true
	w.exitCode = code
	w.App.Quit(code)
	return "", nil
}

func (w *Wafe) cmdSync(argv []string) (string, error) {
	w.App.Pump()
	return "", nil
}

// cmdBackend reports the backend lifecycle state as a flat Tcl list
// (state running pid 1234 restarts 2 ...); `state none` when no
// backend is under supervision — interactive and file mode, or a
// frontend wired without the Supervisor.
func (w *Wafe) cmdBackend(argv []string) (string, error) {
	if w.BackendReport == nil {
		return tcl.FormatList([]string{"state", "none"}), nil
	}
	return tcl.FormatList(w.BackendReport()), nil
}

func (w *Wafe) cmdWidgetList(argv []string) (string, error) {
	return tcl.FormatList(w.App.WidgetNames()), nil
}

func (w *Wafe) cmdWidgetTree(argv []string) (string, error) {
	root := w.TopLevel
	if len(argv) == 2 {
		wid, err := w.widgetArg(argv[1])
		if err != nil {
			return "", err
		}
		root = wid
	}
	var b strings.Builder
	var walk func(x *xt.Widget, depth int)
	walk = func(x *xt.Widget, depth int) {
		fmt.Fprintf(&b, "%s%s (%s) %dx%d+%d+%d\n",
			strings.Repeat("  ", depth), x.Name, x.Class.Name,
			x.Int("width"), x.Int("height"), x.Int("x"), x.Int("y"))
		for _, c := range x.Children() {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return strings.TrimRight(b.String(), "\n"), nil
}

// cmdSnapshot renders the widget tree as ASCII art — the headless
// stand-in for looking at the screen.
func (w *Wafe) cmdSnapshot(argv []string) (string, error) {
	target := w.TopLevel
	if len(argv) == 2 {
		wid, err := w.widgetArg(argv[1])
		if err != nil {
			return "", err
		}
		target = wid
	}
	if !target.IsRealized() {
		return "", tcl.NewError("widget %q is not realized", target.Name)
	}
	w.App.Pump()
	return target.Display().Snapshot(target.Window()), nil
}

// cmdWriteImage rasterizes a widget subtree to a PNG file.
func (w *Wafe) cmdWriteImage(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if !wid.IsRealized() {
		return "", tcl.NewError("widget %q is not realized", wid.Name)
	}
	w.App.Pump()
	img := wid.Display().RenderImage(wid.Window())
	f, err := os.Create(argv[2])
	if err != nil {
		return "", tcl.NewError("cannot create %q: %v", argv[2], err)
	}
	defer f.Close()
	if err := png.Encode(f, img); err != nil {
		return "", tcl.NewError("png encode: %v", err)
	}
	return "", nil
}

// cmdSendClick synthesizes a full button click on a widget:
// sendClick widget ?button? ?x y?
func (w *Wafe) cmdSendClick(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if !wid.IsRealized() {
		return "", tcl.NewError("widget %q is not realized", argv[1])
	}
	button := 1
	if len(argv) >= 3 {
		b, err := strconv.Atoi(argv[2])
		if err != nil || b < 1 || b > 5 {
			return "", tcl.NewError("bad button %q", argv[2])
		}
		button = b
	}
	ox, oy := 2, 2
	if len(argv) == 5 {
		x, err1 := strconv.Atoi(argv[3])
		y, err2 := strconv.Atoi(argv[4])
		if err1 != nil || err2 != nil {
			return "", tcl.NewError("bad coordinates %q %q", argv[3], argv[4])
		}
		ox, oy = x, y
	}
	d := wid.Display()
	win, ok := d.Lookup(wid.Window())
	if !ok {
		return "", tcl.NewError("widget %q has no window", argv[1])
	}
	rx, ry := win.RootCoords(ox, oy)
	d.WarpPointer(rx, ry)
	d.InjectButtonPress(button)
	d.InjectButtonRelease(button)
	w.App.Pump()
	return "", nil
}

// cmdSendKeys types text into a widget (focus is moved there first):
// sendKeys widget text
func (w *Wafe) cmdSendKeys(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if !wid.IsRealized() {
		return "", tcl.NewError("widget %q is not realized", argv[1])
	}
	d := wid.Display()
	d.SetInputFocus(wid.Window())
	if err := d.TypeString(argv[2]); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	w.App.Pump()
	return "", nil
}

// cmdSendExpose injects an Expose for a widget, whole-window or for one
// damage rectangle: sendExpose widget ?x y w h?
func (w *Wafe) cmdSendExpose(argv []string) (string, error) {
	// The bounds admit 1..5 arguments; the rectangle comes whole.
	if len(argv) != 2 && len(argv) != 6 {
		return "", tcl.NewError("wrong # args: should be \"sendExpose widget ?x y w h?\"")
	}
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	x, y, ew, eh := 0, 0, 0, 0
	if len(argv) == 6 {
		var errs [4]error
		x, errs[0] = strconv.Atoi(argv[2])
		y, errs[1] = strconv.Atoi(argv[3])
		ew, errs[2] = strconv.Atoi(argv[4])
		eh, errs[3] = strconv.Atoi(argv[5])
		for _, e := range errs {
			if e != nil {
				return "", tcl.NewError("bad damage rectangle %q %q %q %q", argv[2], argv[3], argv[4], argv[5])
			}
		}
	}
	if wid.IsRealized() {
		wid.Display().InjectExposeRect(wid.Window(), x, y, ew, eh)
	}
	return "", nil
}

func (w *Wafe) cmdWarpPointer(argv []string) (string, error) {
	x, err1 := strconv.Atoi(argv[1])
	y, err2 := strconv.Atoi(argv[2])
	if err1 != nil || err2 != nil {
		return "", tcl.NewError("bad coordinates %q %q", argv[1], argv[2])
	}
	w.App.Display().WarpPointer(x, y)
	w.App.Pump()
	return "", nil
}

func (w *Wafe) cmdFocusWidget(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	if !wid.IsRealized() {
		return "", tcl.NewError("widget %q is not realized", argv[1])
	}
	wid.Display().SetInputFocus(wid.Window())
	return "", nil
}

func (w *Wafe) cmdDisplayList(argv []string) (string, error) {
	names := make([]string, 0, len(w.App.Displays()))
	for _, d := range w.App.Displays() {
		names = append(names, d.Name)
	}
	return tcl.FormatList(names), nil
}
