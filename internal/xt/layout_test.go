package xt_test

import (
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/xaw"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// TestCreateDestroyAllocBudget pins the allocations of one Label
// created and destroyed under a realized Form. A widget's resources
// live in the slots of its class's compiled layout and every default
// conversion is shared through the app, so the pair allocates little
// beyond the widget, its slot arrays and its window. Converting every
// default again and keeping a map per widget cost about 100 objects.
func TestCreateDestroyAllocBudget(t *testing.T) {
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	form, err := app.CreateWidget("form", xaw.FormClass, top, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.CreateWidget("status", xaw.LabelClass, form, map[string]string{"label": "idle"}, true); err != nil {
		t.Fatal(err)
	}
	top.Realize()
	app.Pump()
	pair := func() {
		w, err := app.CreateWidget("l", xaw.LabelClass, form, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		w.Destroy()
		app.Pump()
	}
	pair()
	const budget = 20
	if n := testing.AllocsPerRun(200, pair); n > budget {
		t.Errorf("Label create+destroy under a realized Form allocates %.0f objects, budget %d", n, budget)
	} else {
		t.Logf("Label create+destroy: %.0f allocs", n)
	}
}

// click presses and releases button 1 over the named widget.
func click(t *testing.T, w *core.Wafe, name string) {
	t.Helper()
	wid := w.App.WidgetByName(name)
	d := wid.Display()
	win, ok := d.Lookup(wid.Window())
	if !ok {
		t.Fatalf("widget %q has no window", name)
	}
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	w.App.Pump()
}

func translationsOf(t *testing.T, w *core.Wafe, name string) *xt.Translations {
	t.Helper()
	v, _ := w.App.WidgetByName(name).Get(xt.QTranslations)
	tt, _ := v.(*xt.Translations)
	if tt == nil {
		t.Fatalf("%s has no translation table", name)
	}
	return tt
}

// TestClassTranslationsShared checks that the instances of a class in
// one app share one parsed default translation table, that another app
// parses its own, and that merging into one widget's table (which also
// fills the exec binding's cache slot) leaves its siblings alone.
func TestClassTranslationsShared(t *testing.T) {
	w := core.NewTest()
	eval := func(script string) {
		t.Helper()
		if _, err := w.Eval(script); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
	}
	eval(`form f topLevel
command c1 f label one callback {echo c1 notified}
command c2 f fromVert c1 label two callback {echo c2 notified}
realize`)
	if translationsOf(t, w, "c1") != translationsOf(t, w, "c2") {
		t.Errorf("two Commands in one app parsed their default translations twice")
	}
	other := core.NewTest()
	if _, err := other.Eval("command c1 topLevel"); err != nil {
		t.Fatal(err)
	}
	if translationsOf(t, other, "c1") == translationsOf(t, w, "c1") {
		t.Errorf("two apps share a translation table")
	}

	before, err := w.Eval("gV c2 translations")
	if err != nil {
		t.Fatal(err)
	}
	eval("action c1 override {<Btn1Up>: exec(echo x)}")
	var out strings.Builder
	w.Interp.Stdout = func(line string) { out.WriteString(line + "\n") }
	click(t, w, "c1")
	click(t, w, "c1")
	if got := out.String(); got != "x\nx\n" {
		t.Errorf("clicking c1 printed %q, want the exec binding twice", got)
	}
	out.Reset()
	click(t, w, "c2")
	if got := out.String(); got != "c2 notified\n" {
		t.Errorf("clicking c2 printed %q, want its own callback", got)
	}
	if after, _ := w.Eval("gV c2 translations"); after != before {
		t.Errorf("c2 translations changed to %q, want %q", after, before)
	}
	eval("command c3 f fromVert c2")
	if translationsOf(t, w, "c3") != translationsOf(t, w, "c2") {
		t.Errorf("a Command created after the merge does not share the class table")
	}
}

// TestRegisterConverterResetsDefaults checks that a converter registered
// after widgets exist converts the defaults of the next widget, while
// the widgets created before it keep their values.
func TestRegisterConverterResetsDefaults(t *testing.T) {
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := app.CreateWidget("first", xaw.LabelClass, top, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	red := xproto.Pixel{R: 255}
	app.RegisterConverter(xt.TPixel, func(*xt.App, *xt.Widget, string) (any, error) { return red, nil })
	second, err := app.CreateWidget("second", xaw.LabelClass, top, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.PixelRes(xaw.QForeground); got != red {
		t.Errorf("foreground after RegisterConverter = %v, want %v", got, red)
	}
	if got := first.PixelRes(xaw.QForeground); got != (xproto.Pixel{}) {
		t.Errorf("earlier widget's foreground = %v, want it unchanged", got)
	}
}

// TestUndeclaredAndDestroyedStorage pins the edges of slot storage: a
// name the layout does not declare is stored and read back but stays
// undeclared, and a destroyed widget has no resources left.
// qScratch names a resource no class declares.
var qScratch = xt.StringToQuark("scratch")

func TestUndeclaredAndDestroyedStorage(t *testing.T) {
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	l, err := app.CreateWidget("l", xaw.LabelClass, top, map[string]string{"label": "hi"}, false)
	if err != nil {
		t.Fatal(err)
	}
	l.SetResourceValue(qScratch, 7)
	if v, ok := l.Get(qScratch); !ok || v != 7 {
		t.Errorf("undeclared value = %v, %v; want 7, true", v, ok)
	}
	if _, err := l.GetValue("scratch"); err == nil {
		t.Errorf("gV of an undeclared name succeeded")
	}
	if !l.Explicit(xaw.QLabel) || l.Explicit(xaw.QFont) {
		t.Errorf("explicit flags: label %v, font %v; want true, false", l.Explicit(xaw.QLabel), l.Explicit(xaw.QFont))
	}
	l.Destroy()
	if _, ok := l.Get(xaw.QLabel); ok {
		t.Errorf("a destroyed widget still has its label")
	}
	if err := l.SetValues("label", "late"); err == nil {
		t.Errorf("SetValues on a destroyed widget succeeded")
	}
}

// TestDefaultCacheSkipsArgsAndXrm checks that only defaults are shared:
// a value a widget got from its creation args or from the database
// never becomes the starting value of a later sibling of its class.
func TestDefaultCacheSkipsArgsAndXrm(t *testing.T) {
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.DB.Enter("*fromXrm.foreground", "red"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args map[string]string
	}{
		{"plain", nil},
		{"fromArgs", map[string]string{"borderWidth": "5", "label": "args"}},
		{"fromXrm", nil},
		{"later", nil},
	} {
		if _, err := app.CreateWidget(c.name, xaw.LabelClass, top, c.args, false); err != nil {
			t.Fatal(err)
		}
	}
	later := app.WidgetByName("later")
	for res, want := range map[string]string{"borderWidth": "1", "label": "later", "foreground": "#000000"} {
		if got, _ := later.GetValue(res); got != want {
			t.Errorf("later sibling's %s = %q, want the default %q", res, got, want)
		}
	}
	if got, _ := app.WidgetByName("fromXrm").GetValue("foreground"); got != "#ff0000" {
		t.Errorf("foreground from the database = %q, want #ff0000", got)
	}
}
