package xt

import (
	"strings"
	"testing"
	"time"

	"wafe/internal/xproto"
)

// Handles of the test classes' own resources.
var (
	qFont       = StringToQuark("font")
	qForeground = StringToQuark("foreground")
	qLabel      = StringToQuark("label")
)

// testLabelClass is a minimal Label-like class for xt-level tests
// (the real Athena classes live in internal/xaw).
var testLabelClass = &Class{
	Name:  "TLabel",
	Super: CoreClass,
	Resources: []Resource{
		{Name: "label", Class: "Label", Type: TString, Default: "default-label"},
		{Name: "foreground", Class: "Foreground", Type: TPixel, Default: "XtDefaultForeground"},
		{Name: "font", Class: "Font", Type: TFont, Default: "fixed"},
	},
	PreferredSize: func(w *Widget) (int, int) {
		f := w.FontRes(qFont)
		return f.TextWidth(w.Str(qLabel)) + 8, f.Height() + 4
	},
	Redisplay: func(w *Widget) {
		d := w.Display()
		gc := d.NewGC()
		gc.Foreground = w.PixelRes(qForeground)
		d.DrawString(w.Window(), gc, 4, 13, w.Str(qLabel))
	},
}

var testButtonClass = &Class{
	Name:  "TButton",
	Super: testLabelClass,
	Resources: []Resource{
		{Name: "callback", Class: "Callback", Type: TCallback, Default: ""},
	},
	DefaultTranslations: `<Btn1Down>: notify()`,
	Actions: map[string]ActionProc{
		"notify": func(w *Widget, _ *xproto.Event, _ []string) {
			w.CallCallbacks("callback", nil)
		},
	},
}

var testBoxClass = &Class{
	Name:      "TBox",
	Super:     CompositeClass,
	Composite: true,
	ChangeManaged: func(w *Widget) {
		y := 0
		maxW := 1
		for _, c := range w.ManagedChildren() {
			cw, ch := c.PreferredSize()
			c.SetChildGeometry(0, y, cw, ch)
			y += ch + 2*c.Int(QBorderWidth)
			if cw > maxW {
				maxW = cw
			}
		}
		w.RequestResize(maxW, maxInt(y, 1))
	},
	PreferredSize: func(w *Widget) (int, int) {
		maxW, y := 1, 0
		for _, c := range w.ManagedChildren() {
			cw, ch := c.PreferredSize()
			y += ch + 2*c.Int(QBorderWidth)
			if cw > maxW {
				maxW = cw
			}
		}
		return maxW, maxInt(y, 1)
	},
}

func newShell(t *testing.T, app *App) *Widget {
	t.Helper()
	top, err := app.CreateWidget("topLevel", ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatalf("create shell: %v", err)
	}
	return top
}

func TestCreateWidgetDefaultsAndArgs(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, err := app.CreateWidget("l1", testLabelClass, top, map[string]string{"label": "hello"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if w.Str(qLabel) != "hello" {
		t.Errorf("label = %q", w.Str(qLabel))
	}
	// Default applies when no arg given.
	w2, err := app.CreateWidget("l2", testLabelClass, top, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Str(qLabel) != "default-label" {
		t.Errorf("default label = %q", w2.Str(qLabel))
	}
	if !w.Bool(QSensitive) {
		t.Error("sensitive default should be True")
	}
	if w.Int(QBorderWidth) != 1 {
		t.Errorf("borderWidth default = %d", w.Int(QBorderWidth))
	}
}

func TestCreateWidgetErrors(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	if _, err := app.CreateWidget("x", testLabelClass, top, map[string]string{"nosuch": "1"}, true); err == nil {
		t.Error("unknown resource arg must fail")
	}
	if _, err := app.CreateWidget("topLevel", testLabelClass, top, nil, true); err == nil {
		t.Error("duplicate name must fail")
	}
	if _, err := app.CreateWidget("orphan", testLabelClass, nil, nil, true); err == nil {
		t.Error("non-shell without parent must fail")
	}
	lab, _ := app.CreateWidget("leaf", testLabelClass, top, nil, true)
	if _, err := app.CreateWidget("child-of-leaf", testLabelClass, lab, nil, true); err == nil {
		t.Error("non-composite parent must fail")
	}
}

func TestXrmPrecedence(t *testing.T) {
	db := NewXrm()
	if err := db.EnterString(`
! comment line
*foreground: blue
*TLabel.foreground: green
wafe.box.l1.foreground: red
`); err != nil {
		t.Fatal(err)
	}
	names := []string{"wafe", "box", "l1"}
	classes := []string{"Wafe", "TBox", "TLabel"}
	v, ok := db.Query(names, classes, "foreground", "Foreground")
	if !ok || v != "red" {
		t.Errorf("fully-specified entry should win, got %q/%v", v, ok)
	}
	// Other instance: class entry beats wildcard.
	v, ok = db.Query([]string{"wafe", "box", "l2"}, classes, "foreground", "Foreground")
	if !ok || v != "green" {
		t.Errorf("class match should beat wildcard, got %q/%v", v, ok)
	}
	// No TLabel in path: falls to wildcard.
	v, ok = db.Query([]string{"wafe", "box", "other"}, []string{"Wafe", "TBox", "TButton2"}, "foreground", "Foreground")
	if !ok || v != "blue" {
		t.Errorf("wildcard fallback, got %q/%v", v, ok)
	}
	// Nothing matches an unrelated resource.
	if _, ok := db.Query(names, classes, "font", "Font"); ok {
		t.Error("unrelated resource must not match")
	}
}

func TestXrmReplacementAndTightVsLoose(t *testing.T) {
	db := NewXrm()
	_ = db.Enter("*label", "one")
	_ = db.Enter("*label", "two")
	if db.Len() != 1 {
		t.Errorf("duplicate spec should replace, len=%d", db.Len())
	}
	_ = db.Enter("wafe*label", "loose")
	_ = db.Enter("wafe.l.label", "tight")
	v, _ := db.Query([]string{"wafe", "l"}, []string{"Wafe", "TLabel"}, "label", "Label")
	if v != "tight" {
		t.Errorf("tight binding should win, got %q", v)
	}
}

func TestWidgetXrmIntegration(t *testing.T) {
	app := NewTestApp("wafe")
	_ = app.DB.EnterString("*label: from-db")
	top := newShell(t, app)
	w, err := app.CreateWidget("l1", testLabelClass, top, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if w.Str(qLabel) != "from-db" {
		t.Errorf("db value not applied: %q", w.Str(qLabel))
	}
	// Creation args still beat the database.
	w2, _ := app.CreateWidget("l2", testLabelClass, top, map[string]string{"label": "arg"}, true)
	if w2.Str(qLabel) != "arg" {
		t.Errorf("arg should beat db: %q", w2.Str(qLabel))
	}
}

func TestSetValuesGetValue(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, _ := app.CreateWidget("l", testLabelClass, top, nil, true)
	if err := w.SetValues("label", "Hi Man", "foreground", "tomato"); err != nil {
		t.Fatal(err)
	}
	got, err := w.GetValue("label")
	if err != nil || got != "Hi Man" {
		t.Errorf("GetValue(label) = %q, %v", got, err)
	}
	fg, _ := w.GetValue("foreground")
	if fg != "#ff6347" {
		t.Errorf("foreground = %q", fg)
	}
	if err := w.SetValues("nosuch", "x"); err == nil {
		t.Error("setting unknown resource must fail")
	}
	if err := w.SetValues("foreground", "notacolor"); err == nil {
		t.Error("bad conversion must fail")
	}
	if _, err := w.GetValue("nosuch"); err == nil {
		t.Error("getting unknown resource must fail")
	}
}

func TestResourceNamesOrder(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, _ := app.CreateWidget("l", testLabelClass, top, nil, true)
	names := w.ResourceNames()
	// The paper's getResourceList output prefix.
	wantPrefix := []string{"destroyCallback", "ancestorSensitive", "x", "y", "width", "height",
		"borderWidth", "sensitive", "screen", "depth", "colormap", "background"}
	for i, want := range wantPrefix {
		if i >= len(names) || names[i] != want {
			t.Fatalf("resource %d = %q, want %q (names=%v)", i, names[i], want, names[:12])
		}
	}
}

// TestConstraintDuplicates pins how a layout resolves a name declared
// twice: by the child's class and a parent constraint, or by two
// classes of the parent's constraint chain. The name keeps the slot of
// its first declaration and takes the later declaration's default.
func TestConstraintDuplicates(t *testing.T) {
	superC := &Class{
		Name: "TConstraint", Super: ConstraintClass, Composite: true,
		Constraints: []Resource{
			{Name: "label", Class: "Label", Type: TString, Default: "from-constraint"},
			{Name: "pos", Class: "Pos", Type: TInt, Default: "1"},
		},
	}
	subC := &Class{
		Name: "TSubConstraint", Super: superC, Composite: true,
		Constraints: []Resource{
			{Name: "pos", Class: "Pos", Type: TInt, Default: "2"},
			{Name: "gap", Class: "Gap", Type: TInt, Default: "3"},
		},
	}
	app := NewTestApp("wafe")
	top := newShell(t, app)
	p, err := app.CreateWidget("p", subC, top, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		w, err := app.CreateWidget("c", testLabelClass, p, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		names := w.ResourceNames()
		if got, want := strings.Join(names[len(names)-5:], " "), "label foreground font pos gap"; got != want {
			t.Errorf("resource names end %q, want %q", got, want)
		}
		for res, want := range map[string]string{"label": "from-constraint", "pos": "1", "gap": "3"} {
			if got, _ := w.GetValue(res); got != want {
				t.Errorf("round %d: %s = %q, want %q", round, res, got, want)
			}
		}
		w.Destroy()
	}
}

func TestTranslationParsing(t *testing.T) {
	tt, err := ParseTranslations(`<EnterWindow>: PopupMenu()
<Key>Return: exec(echo [gV input string])
Shift<Btn1Down>: doit(a, b)
<KeyPress>: exec(echo %k %a %s)`)
	if err != nil {
		t.Fatal(err)
	}
	if tt.Len() != 4 {
		t.Fatalf("parsed %d entries", tt.Len())
	}
	// Bracket nesting within action params survives.
	ev := &xproto.Event{Type: xproto.KeyPress, Keysym: "Return", Rune: '\r'}
	calls := tt.Match(ev)
	if len(calls) != 1 || calls[0].Name != "exec" || calls[0].Params[0] != "echo [gV input string]" {
		t.Errorf("calls = %+v", calls)
	}
	// Wildcard key binding matches other keys.
	ev2 := &xproto.Event{Type: xproto.KeyPress, Keysym: "w", Rune: 'w'}
	calls = tt.Match(ev2)
	if len(calls) != 1 || calls[0].Params[0] != "echo %k %a %s" {
		t.Errorf("wildcard key match = %+v", calls)
	}
	// Modifier matching.
	press := &xproto.Event{Type: xproto.ButtonPress, Button: 1}
	if got := tt.Match(press); got != nil {
		t.Errorf("unshifted press should not match Shift<Btn1Down>, got %+v", got)
	}
	press.State = xproto.ShiftMask
	got := tt.Match(press)
	if len(got) != 1 || got[0].Name != "doit" || len(got[0].Params) != 2 || got[0].Params[1] != "b" {
		t.Errorf("shifted press = %+v", got)
	}
	// Enter binding.
	if got := tt.Match(&xproto.Event{Type: xproto.EnterNotify}); len(got) != 1 || got[0].Name != "PopupMenu" {
		t.Errorf("enter = %+v", got)
	}
}

func TestTranslationErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense",
		"<NoSuchEvent>: foo()",
		"<Key>Return foo()", // missing colon
		"<EnterWindow>:",    // no actions
		"Badmod<Key>: f()",
	} {
		if _, err := ParseTranslations(bad); err == nil {
			t.Errorf("ParseTranslations(%q) should fail", bad)
		}
	}
}

func TestTranslationMerge(t *testing.T) {
	base, _ := ParseTranslations("<Btn1Down>: one()\n<EnterWindow>: enter()")
	over, _ := ParseTranslations("<Btn1Down>: two()")
	merged := base.Merge(over, MergeOverride)
	got := merged.Match(&xproto.Event{Type: xproto.ButtonPress, Button: 1})
	if len(got) != 1 || got[0].Name != "two" {
		t.Errorf("override merge = %+v", got)
	}
	if calls := merged.Match(&xproto.Event{Type: xproto.EnterNotify}); len(calls) != 1 || calls[0].Name != "enter" {
		t.Errorf("non-conflicting binding lost: %+v", calls)
	}
	aug := base.Merge(over, MergeAugment)
	got = aug.Match(&xproto.Event{Type: xproto.ButtonPress, Button: 1})
	if len(got) != 1 || got[0].Name != "one" {
		t.Errorf("augment merge = %+v", got)
	}
	rep := base.Merge(over, MergeReplace)
	if rep.Match(&xproto.Event{Type: xproto.EnterNotify}) != nil {
		t.Error("replace should drop old bindings")
	}
}

func TestEventDispatchThroughTranslations(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	var fired []string
	app.AddAction("record", func(w *Widget, ev *xproto.Event, params []string) {
		fired = append(fired, w.Name+":"+strings.Join(params, ","))
	})
	w, _ := app.CreateWidget("btn", testLabelClass, top, map[string]string{"width": "50", "height": "20"}, true)
	tt, _ := ParseTranslations("<Btn1Down>: record(pressed)")
	w.SetResourceValue(QTranslations, tt)
	top.Realize()
	w.UpdateInputMask()
	app.Pump()
	d := app.Display()
	wx, wy := rootOf(w)
	d.WarpPointer(wx+5, wy+5)
	d.InjectButtonPress(1)
	app.Pump()
	if len(fired) != 1 || fired[0] != "btn:pressed" {
		t.Errorf("fired = %v", fired)
	}
}

func rootOf(w *Widget) (int, int) {
	win, _ := w.Display().Lookup(w.Window())
	return win.RootCoords(0, 0)
}

func TestInsensitiveWidgetIgnoresInput(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	count := 0
	app.AddAction("hit", func(w *Widget, _ *xproto.Event, _ []string) { count++ })
	w, _ := app.CreateWidget("btn", testLabelClass, top, map[string]string{"width": "50", "height": "20"}, true)
	tt, _ := ParseTranslations("<Btn1Down>: hit()")
	w.SetResourceValue(QTranslations, tt)
	top.Realize()
	w.UpdateInputMask()
	app.Pump()
	wx, wy := rootOf(w)
	app.Display().WarpPointer(wx+2, wy+2)
	app.Display().InjectButtonPress(1)
	app.Pump()
	if count != 1 {
		t.Fatalf("sensitive press count = %d", count)
	}
	_ = w.SetValues("sensitive", "false")
	app.Pump()
	app.Display().InjectButtonPress(1)
	app.Pump()
	if count != 1 {
		t.Errorf("insensitive widget received input (count=%d)", count)
	}
}

func TestCallbacks(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, _ := app.CreateWidget("b", testButtonClass, top, nil, true)
	var calls []string
	err := w.AddCallback("callback", Callback{Source: "first", Proc: func(w *Widget, _ CallData) {
		calls = append(calls, "first")
	}})
	if err != nil {
		t.Fatal(err)
	}
	_ = w.AddCallback("callback", Callback{Source: "second", Proc: func(w *Widget, _ CallData) {
		calls = append(calls, "second")
	}})
	if !w.HasCallbacks("callback") {
		t.Error("HasCallbacks = false")
	}
	w.CallCallbacks("callback", nil)
	if strings.Join(calls, ",") != "first,second" {
		t.Errorf("calls = %v", calls)
	}
	// Readable callback resource (Wafe extension).
	src, err := w.GetValue("callback")
	if err != nil || src != "first; second" {
		t.Errorf("callback source = %q, %v", src, err)
	}
	_ = w.RemoveAllCallbacks("callback")
	if w.HasCallbacks("callback") {
		t.Error("callbacks survived RemoveAllCallbacks")
	}
	if err := w.AddCallback("label", Callback{}); err == nil {
		t.Error("AddCallback on non-callback resource must fail")
	}
}

func TestDestroyCallbacksAndMemory(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	box, _ := app.CreateWidget("box", testBoxClass, top, nil, true)
	w, _ := app.CreateWidget("b", testButtonClass, box, nil, true)
	destroyed := []string{}
	_ = w.AddCallback("destroyCallback", Callback{Proc: func(w *Widget, _ CallData) {
		destroyed = append(destroyed, w.Name)
	}})
	before := len(app.widgets)
	box.Destroy()
	if len(app.widgets) != before-2 {
		t.Errorf("live widgets %d → %d, want -2", before, len(app.widgets))
	}
	if len(destroyed) != 1 || destroyed[0] != "b" {
		t.Errorf("destroyCallback fired %v", destroyed)
	}
	if app.WidgetByName("b") != nil || app.WidgetByName("box") != nil {
		t.Error("destroyed widgets still registered")
	}
	// Name can be reused after destroy.
	if _, err := app.CreateWidget("box", testBoxClass, top, nil, true); err != nil {
		t.Errorf("name reuse after destroy failed: %v", err)
	}
}

func TestRealizeCreatesWindows(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	box, _ := app.CreateWidget("box", testBoxClass, top, nil, true)
	l1, _ := app.CreateWidget("l1", testLabelClass, box, map[string]string{"label": "one"}, true)
	l2, _ := app.CreateWidget("l2", testLabelClass, box, map[string]string{"label": "longer-label"}, true)
	top.Realize()
	for _, w := range []*Widget{top, box, l1, l2} {
		if !w.IsRealized() || w.Window() == 0 {
			t.Errorf("%s not realized", w.Name)
		}
	}
	// Box stacked l2 below l1.
	if l2.Int(QY) <= l1.Int(QY) {
		t.Errorf("layout: l1.y=%d l2.y=%d", l1.Int(QY), l2.Int(QY))
	}
	// Shell sized itself to the box.
	if top.Int(QWidth) < l2.Int(QWidth) {
		t.Errorf("shell width %d < child width %d", top.Int(QWidth), l2.Int(QWidth))
	}
	// Windows mapped.
	win, _ := app.Display().Lookup(l1.Window())
	if !win.Viewable() {
		t.Error("l1 window not viewable after realize")
	}
}

func TestExposeRedraw(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, _ := app.CreateWidget("l", testLabelClass, top, map[string]string{"label": "drawme"}, true)
	top.Realize()
	app.Pump()
	texts := w.Display().StringsDrawn(w.Window())
	found := false
	for _, s := range texts {
		if s == "drawme" {
			found = true
		}
	}
	if !found {
		t.Errorf("label text not drawn, log=%v", texts)
	}
}

func TestPopupPopdownGrabs(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	top.Realize()
	popup, _ := app.CreateWidget("menu", OverrideShellClass, top, nil, false)
	_, _ = app.CreateWidget("entry", testLabelClass, popup, nil, true)
	if err := popup.Popup(GrabExclusive); err != nil {
		t.Fatal(err)
	}
	if !popup.poppedUp {
		t.Error("not popped up")
	}
	d := app.Display()
	if d.GrabbedWindow() != popup.Window() {
		t.Error("exclusive grab not installed")
	}
	win, _ := d.Lookup(popup.Window())
	if !win.Mapped {
		t.Error("popup window not mapped")
	}
	if err := popup.Popdown(); err != nil {
		t.Fatal(err)
	}
	if popup.poppedUp || d.GrabbedWindow() != xproto.None {
		t.Error("popdown did not release state")
	}
	if win.Mapped {
		t.Error("popup window still mapped")
	}
	// Grab kinds parse per the paper's predefined callbacks table.
	for name, want := range map[string]GrabKind{"none": GrabNone, "exclusive": GrabExclusive, "nonexclusive": GrabNonexclusive} {
		got, err := ParseGrabKind(name)
		if err != nil || got != want {
			t.Errorf("ParseGrabKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseGrabKind("bogus"); err == nil {
		t.Error("bad grab kind must fail")
	}
}

func TestPositionShell(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	top.Realize()
	popup, _ := app.CreateWidget("pop", TransientShellClass, top, nil, false)
	_ = popup.Popup(GrabNone)
	if err := popup.PositionShell(123, 45); err != nil {
		t.Fatal(err)
	}
	if popup.Int(QX) != 123 || popup.Int(QY) != 45 {
		t.Errorf("position = %d,%d", popup.Int(QX), popup.Int(QY))
	}
	app.Display().WarpPointer(300, 200)
	_ = popup.PositionShellUnderPointer()
	if popup.Int(QX) != 300 || popup.Int(QY) != 200 {
		t.Errorf("positionCursor = %d,%d", popup.Int(QX), popup.Int(QY))
	}
	lab := app.WidgetByName("topLevel")
	_ = lab
	w, _ := app.CreateWidget("plain", testLabelClass, top, nil, true)
	if err := w.PositionShell(1, 1); err == nil {
		t.Error("PositionShell on non-shell must fail")
	}
}

func TestTimeouts(t *testing.T) {
	app := NewTestApp("wafe")
	fired := 0
	app.AddTimeout(5*time.Millisecond, func() { fired++; app.Quit(0) })
	cancelled := app.AddTimeout(1*time.Millisecond, func() { fired += 100 })
	cancelled.Remove()
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("MainLoop did not quit")
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (cancelled timer must not run)", fired)
	}
}

func TestAddInputEventsDeliversLines(t *testing.T) {
	app := NewTestApp("wafe")
	ch := make(chan InputEvent, 4)
	var got []string
	var sawEOF bool
	app.AddInputEvents(ch, func(ev InputEvent) {
		if ev.EOF {
			sawEOF = true
			app.Quit(0)
			return
		}
		got = append(got, ev.Line)
	})
	ch <- InputEvent{Line: "one"}
	ch <- InputEvent{Line: "two"}
	ch <- InputEvent{EOF: true}
	close(ch)
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("MainLoop did not quit on EOF")
	}
	if strings.Join(got, ",") != "one,two" || !sawEOF {
		t.Errorf("got=%v eof=%v", got, sawEOF)
	}
}

func TestSecondDisplay(t *testing.T) {
	app := NewTestApp("wafe")
	d2 := app.OpenSecondDisplay("unit-dec4:0")
	if len(app.Displays()) != 2 {
		t.Fatalf("displays = %d", len(app.Displays()))
	}
	if app.OpenSecondDisplay("unit-dec4:0") != d2 {
		t.Error("re-opening should return same display")
	}
	xproto.CloseDisplay(d2)
}

func TestUnboundActionRaisesError(t *testing.T) {
	app := NewTestApp("wafe")
	var errs []error
	app.ErrorHandler = func(err error) { errs = append(errs, err) }
	top := newShell(t, app)
	w, _ := app.CreateWidget("l", testLabelClass, top, map[string]string{"width": "30", "height": "10"}, true)
	tt, _ := ParseTranslations("<Btn1Down>: NoSuchAction()")
	w.SetResourceValue(QTranslations, tt)
	top.Realize()
	w.UpdateInputMask()
	app.Pump()
	wx, wy := rootOf(w)
	app.Display().WarpPointer(wx+1, wy+1)
	app.Display().InjectButtonPress(1)
	app.Pump()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "unbound action") {
		t.Errorf("errors = %v", errs)
	}
}

func TestConverterErrors(t *testing.T) {
	app := NewTestApp("wafe")
	if _, err := convert(app, nil, "NoSuchType", "x"); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := convert(app, nil, TInt, "abc"); err == nil {
		t.Error("bad int must fail")
	}
	if _, err := convert(app, nil, TBoolean, "maybe"); err == nil {
		t.Error("bad bool must fail")
	}
	if v, err := convert(app, nil, TDimension, "42"); err != nil || v.(int) != 42 {
		t.Errorf("dimension = %v, %v", v, err)
	}
	if v, err := convert(app, nil, TFloat, "0.5"); err != nil || v.(float64) != 0.5 {
		t.Errorf("float = %v, %v", v, err)
	}
}

// TestChangeManagedDeferredToRealize pins Xt's geometry rules: no
// layout under an unrealized parent, one bottom-up pass per composite
// at realize, a relayout for a change under a realized parent, and
// none for children of a parent that is being destroyed.
func TestChangeManagedDeferredToRealize(t *testing.T) {
	var order []string
	countingBox := &Class{
		Name:      "TCountingBox",
		Super:     testBoxClass,
		Composite: true,
		ChangeManaged: func(w *Widget) {
			order = append(order, w.Name)
			testBoxClass.ChangeManaged(w)
		},
	}
	app := NewTestApp("wafe")
	top := newShell(t, app)
	outer, _ := app.CreateWidget("outer", countingBox, top, nil, true)
	inner, _ := app.CreateWidget("inner", countingBox, outer, nil, true)
	for _, n := range []string{"a", "b", "c"} {
		if _, err := app.CreateWidget(n, testLabelClass, inner, map[string]string{"label": n}, true); err != nil {
			t.Fatal(err)
		}
	}
	l, _ := app.CreateWidget("l", testLabelClass, outer, nil, true)
	if err := l.SetValues("width", "90"); err != nil {
		t.Fatal(err)
	}
	if len(order) != 0 || l.Int(QY) != 0 {
		t.Fatalf("layout ran before realize: %v, l.y = %d", order, l.Int(QY))
	}
	top.Realize()
	if got := strings.Join(order, " "); got != "inner outer" {
		t.Errorf("realize laid out %q, want each box once, inner first", got)
	}
	if l.Int(QY) != inner.Int(QHeight)+2*inner.Int(QBorderWidth) || outer.Int(QWidth) != 90 {
		t.Errorf("settled geometry: l.y = %d below inner %dx%d, outer width = %d, want 90",
			l.Int(QY), inner.Int(QWidth), inner.Int(QHeight), outer.Int(QWidth))
	}

	order = nil
	if _, err := app.CreateWidget("d", testLabelClass, inner, nil, true); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "inner outer" {
		t.Errorf("managing into a realized box laid out %q, want the box then its parent", got)
	}

	order = nil
	outer.Destroy()
	if len(order) != 0 {
		t.Errorf("destroy relaid out %v, want no layout of dying parents", order)
	}
}

// TestRealizeChildRealizesParent: realizing a widget whose parent has
// no window realizes from the parent, laid out, one window per widget.
func TestRealizeChildRealizesParent(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	box, _ := app.CreateWidget("box", testBoxClass, top, nil, true)
	l1, _ := app.CreateWidget("l1", testLabelClass, box, map[string]string{"label": "one"}, true)
	l2, _ := app.CreateWidget("l2", testLabelClass, box, map[string]string{"label": "two"}, true)
	l2.Realize()
	for _, w := range []*Widget{top, box, l1, l2} {
		if !w.IsRealized() {
			t.Errorf("%s not realized", w.Name)
		}
	}
	if l2.Int(QY) <= l1.Int(QY) {
		t.Errorf("box not laid out: l1.y=%d l2.y=%d", l1.Int(QY), l2.Int(QY))
	}
	root, _ := app.Display().Lookup(app.Display().Root)
	topWin, _ := app.Display().Lookup(top.Window())
	boxWin, _ := app.Display().Lookup(box.Window())
	if len(root.Children) != 1 || len(topWin.Children) != 1 || len(boxWin.Children) != 2 {
		t.Errorf("window tree: root %d, top %d, box %d children; want 1, 1, 2",
			len(root.Children), len(topWin.Children), len(boxWin.Children))
	}
}

// newKeyLabel realizes a label whose KeyPress translation runs the
// global action key, with keyboard focus on it.
func newKeyLabel(t *testing.T, app *App) *Widget {
	t.Helper()
	top := newShell(t, app)
	w, err := app.CreateWidget("k", testLabelClass, top, map[string]string{
		"label": "keys", "translations": "<KeyPress>: key()",
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	top.Realize()
	app.Pump()
	app.Display().SetInputFocus(w.Window())
	return w
}

// TestDispatchAllocs: dispatching an event copies nothing to the heap;
// the action or Redisplay gets a pointer into the app's event slots.
func TestDispatchAllocs(t *testing.T) {
	app := NewTestApp("wafe")
	w := newKeyLabel(t, app)
	keys := 0
	app.AddAction("key", func(*Widget, *xproto.Event, []string) { keys++ })
	d := app.Display()
	for _, ev := range []xproto.Event{
		{Type: xproto.Expose, Window: w.Window(), X: 1, Y: 1, Width: 3, Height: 3},
		{Type: xproto.KeyPress, Window: w.Window(), Keycode: 38, Keysym: "a", Rune: 'a'},
	} {
		app.DispatchEvent(d, ev)
		if got := testing.AllocsPerRun(100, func() { app.DispatchEvent(d, ev) }); got != 0 {
			t.Errorf("%s dispatch: %.1f allocations, want 0", ev.Type, got)
		}
	}
	if keys == 0 {
		t.Error("key action never ran")
	}
}

// TestDispatchReentrantKeepsEvent: an action that pumps re-entrantly
// still sees its own event afterwards, at every depth, past the app's
// event slots too.
func TestDispatchReentrantKeepsEvent(t *testing.T) {
	app := NewTestApp("wafe")
	newKeyLabel(t, app)
	d := app.Display()
	limit := 2 * len(app.events)
	depth, deepest := 0, 0
	app.AddAction("key", func(_ *Widget, ev *xproto.Event, _ []string) {
		code := ev.Keycode
		depth++
		deepest = max(deepest, depth)
		if depth < limit {
			d.InjectKeycode(code+1, true)
			app.Pump()
		}
		if ev.Keycode != code {
			t.Errorf("depth %d: keycode %d after a nested pump, want %d", depth, ev.Keycode, code)
		}
		depth--
	})
	d.InjectKeycode(10, true)
	app.Pump()
	if deepest != limit {
		t.Errorf("deepest dispatch = %d, want %d", deepest, limit)
	}
}
