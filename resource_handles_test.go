package wafe

import (
	"testing"

	"wafe/internal/core"
	"wafe/internal/xaw"
	"wafe/internal/xt"
)

// TestResourceHandles reads every declared resource of every class of
// every widget set, under each parent the resource corpus uses,
// through the quark of its name, and checks that the value formats to
// what gV returns for the name. Names interned before the first layout
// was compiled resolve through a layout's slot table, the others
// through the slot scan; both must agree with the string index. An
// undeclared name must round-trip through SetResourceValue and Get,
// and a handle read must allocate nothing.
func TestResourceHandles(t *testing.T) {
	w := core.NewTest()
	w.Interp.Stdout = func(string) {}
	if _, err := w.Eval("form pf topLevel\nbox pb pf\nsimpleMenu menu topLevel"); err != nil {
		t.Fatal(err)
	}
	scratch := xt.StringToQuark("handleTestScratch")
	for _, c := range w.WidgetSetClasses() {
		cmd := core.CreationCommandName(c.Name)
		for _, parent := range resourceCorpusParents(c) {
			name := resourceCorpusInstance(cmd, parent)
			if _, err := w.Eval(cmd + " " + name + " " + parent); err != nil {
				t.Fatalf("%s %s %s: %v", cmd, name, parent, err)
			}
			wid := w.App.WidgetByName(name)
			types := map[string]string{}
			for _, r := range c.AllResources() {
				types[r.Name] = r.Type
			}
			// A constraint redeclaring a name resolves through the
			// later (super-most) declaration, as the layout does.
			for _, r := range wid.Parent.Class.AllConstraints() {
				types[r.Name] = r.Type
			}
			for _, res := range wid.ResourceNames() {
				want, err := wid.GetValue(res)
				if err != nil {
					t.Fatalf("%s: gV %s: %v", name, res, err)
				}
				v, ok := wid.Get(xt.StringToQuark(res))
				if !ok {
					t.Errorf("%s: no value through the handle of %s", name, res)
					continue
				}
				got := ""
				if v != nil {
					got = w.App.Format(types[res], v)
				}
				if got != want {
					t.Errorf("%s: %s through its handle = %q, gV = %q", name, res, got, want)
				}
			}
			wid.SetResourceValue(scratch, name)
			if v, ok := wid.Get(scratch); !ok || v != name {
				t.Errorf("%s: undeclared value = %v, %v; want %q, true", name, v, ok, name)
			}
			if _, err := wid.GetValue("handleTestScratch"); err == nil {
				t.Errorf("%s: gV of an undeclared name succeeded", name)
			}
			if _, err := w.Eval("destroyWidget " + name); err != nil {
				t.Fatal(err)
			}
		}
	}
	label, err := w.App.CreateWidget("handleLabel", xaw.LabelClass, w.App.WidgetByName("pf"), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = label.Int(xt.QWidth) + label.Int(xaw.QInternalWidth)
		_ = label.Str(xaw.QLabel)
		_ = label.PixelRes(xaw.QForeground)
		_ = label.FontRes(xaw.QFont)
		_ = label.Bool(xt.QSensitive)
		_ = label.Explicit(xt.QHeight)
		_, _ = label.Get(scratch)
	})
	if allocs != 0 {
		t.Errorf("handle reads allocate %v times, want 0", allocs)
	}
}
