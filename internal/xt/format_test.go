package xt

import (
	"testing"

	"wafe/internal/xproto"
)

// convert applies the converter registered for typeName.
func convert(app *App, w *Widget, typeName, value string) (any, error) {
	return app.ConvertQ(w, StringToQuark(typeName), typeName, value)
}

// TestFormattersRoundTrip: every built-in type formats its converted
// value back to a stable string.
func TestFormattersRoundTrip(t *testing.T) {
	app := NewTestApp("wafe")
	cases := []struct {
		typ  string
		in   string
		want string
	}{
		{TString, "hello", "hello"},
		{TInt, "42", "42"},
		{TDimension, "7", "7"},
		{TPosition, "-3", "-3"},
		{TBoolean, "true", "True"},
		{TBoolean, "off", "False"},
		{TFloat, "0.25", "0.25"},
		{TPixel, "red", "#ff0000"},
		{TFont, "fixed", "fixed"},
		{TJustify, "LEFT", "left"},
		{TOrientation, "Vertical", "vertical"},
	}
	for _, c := range cases {
		v, err := convert(app, nil, c.typ, c.in)
		if err != nil {
			t.Errorf("Convert(%s, %q): %v", c.typ, c.in, err)
			continue
		}
		if got := app.Format(c.typ, v); got != c.want {
			t.Errorf("Format(%s, Convert(%q)) = %q, want %q", c.typ, c.in, got, c.want)
		}
	}
	// Translations round-trip through source text.
	tt, err := convert(app, nil, TTranslations, "<Btn1Down>: go()")
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Format(TTranslations, tt); got != "<Btn1Down>: go()" {
		t.Errorf("translations format = %q", got)
	}
	// StringList joins with newlines.
	sl, _ := convert(app, nil, TStringList, "a\nb")
	if got := app.Format(TStringList, sl); got != "a\nb" {
		t.Errorf("stringlist format = %q", got)
	}
	// Nil pixmap formats as None.
	pm, _ := convert(app, nil, TPixmap, "")
	if got := app.Format(TPixmap, pm); got != "None" {
		t.Errorf("nil pixmap format = %q", got)
	}
	// Unregistered types fall back to fmt.Sprint.
	if got := app.Format("NoSuchType", 7); got != "7" {
		t.Errorf("fallback format = %q", got)
	}
}

// TestEventMaskDerivation: the translation table determines the input
// mask the widget's window selects.
func TestEventMaskDerivation(t *testing.T) {
	tt, err := ParseTranslations(`<Btn1Down>: a()
<KeyPress>: b()
<EnterWindow>: c()
<Motion>: d()`)
	if err != nil {
		t.Fatal(err)
	}
	m := tt.EventMask()
	for _, want := range []xproto.EventMask{
		xproto.ButtonPressMask, xproto.KeyPressMask,
		xproto.EnterWindowMask, xproto.PointerMotionMask,
	} {
		if m&want == 0 {
			t.Errorf("mask missing %b", want)
		}
	}
	if m&xproto.ButtonReleaseMask != 0 {
		t.Error("mask includes unselected ButtonRelease")
	}
	if (*Translations)(nil).EventMask() != 0 {
		t.Error("nil table mask")
	}
}

// TestWidgetConverterResolvesNames: the Widget-typed converter turns
// names into widget pointers (used by constraint resources).
func TestWidgetConverterResolvesNames(t *testing.T) {
	app := NewTestApp("wafe")
	top, _ := app.CreateWidget("topLevel", ApplicationShellClass, nil, nil, false)
	lbl, _ := app.CreateWidget("target", testLabelClass, top, nil, true)
	v, err := convert(app, nil, TWidget, "target")
	if err != nil {
		t.Fatal(err)
	}
	if v.(*Widget) != lbl {
		t.Error("widget converter returned wrong widget")
	}
	if got := app.Format(TWidget, v); got != "target" {
		t.Errorf("widget format = %q", got)
	}
	if _, err := convert(app, nil, TWidget, "missing"); err == nil {
		t.Error("unknown widget name accepted")
	}
	empty, err := convert(app, nil, TWidget, " ")
	if err != nil || empty.(*Widget) != nil {
		t.Errorf("empty widget ref = %v, %v", empty, err)
	}
}

// TestShellTitleResources: WMShell resources are declared and settable.
func TestShellTitleResources(t *testing.T) {
	app := NewTestApp("wafe")
	top, _ := app.CreateWidget("topLevel", ApplicationShellClass, nil,
		map[string]string{"title": "My Application", "iconName": "myapp"}, false)
	if top.Str(QTitle) != "My Application" || top.Str(QIconName) != "myapp" {
		t.Errorf("title=%q icon=%q", top.Str(QTitle), top.Str(QIconName))
	}
	if err := top.SetValues("title", "Renamed"); err != nil {
		t.Fatal(err)
	}
	if got, _ := top.GetValue("title"); got != "Renamed" {
		t.Errorf("title = %q", got)
	}
}

// TestClassIntrospection covers the small Class helpers.
func TestClassIntrospection(t *testing.T) {
	if !testButtonClass.IsSubclassOf(CoreClass) || !testButtonClass.IsSubclassOf(testLabelClass) {
		t.Error("subclass chain broken")
	}
	if CoreClass.IsSubclassOf(testLabelClass) {
		t.Error("inverted subclass relation")
	}
	all := testButtonClass.AllResources()
	if all[0].Name != "destroyCallback" {
		t.Errorf("first resource = %q", all[0].Name)
	}
	found := false
	for _, r := range all {
		if r.Name == "callback" {
			found = true
		}
	}
	if !found {
		t.Error("subclass resource missing from AllResources")
	}
}
