package rdd

import (
	"testing"

	"wafe/internal/xaw"
	"wafe/internal/xt"
)

func setup(t *testing.T) (*xt.App, *DND, *xt.Widget, *xt.Widget) {
	t.Helper()
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	box, err := app.CreateWidget("box", xaw.BoxClass, top, map[string]string{"orientation": "horizontal"}, true)
	if err != nil {
		t.Fatal(err)
	}
	src, err := app.CreateWidget("src", xaw.LabelClass, box, map[string]string{"label": "drag me"}, true)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := app.CreateWidget("dst", xaw.LabelClass, box, map[string]string{"label": "drop here"}, true)
	if err != nil {
		t.Fatal(err)
	}
	top.Realize()
	app.Pump()
	return app, Context(app), src, dst
}

func TestDragAndDrop(t *testing.T) {
	app, dnd, src, dst := setup(t)
	if err := dnd.RegisterSource(src, func(w *xt.Widget) string { return w.Str(xaw.QLabel) }); err != nil {
		t.Fatal(err)
	}
	var got string
	if err := dnd.RegisterTarget(dst, func(w *xt.Widget, data string, x, y int) { got = data }); err != nil {
		t.Fatal(err)
	}
	if err := dnd.Drag(src, dst); err != nil {
		t.Fatal(err)
	}
	if got != "drag me" {
		t.Errorf("dropped data = %q", got)
	}
	if dnd.dragging {
		t.Error("drag state not cleared")
	}
	_ = app
}

func TestDropOutsideTargetCancels(t *testing.T) {
	_, dnd, src, dst := setup(t)
	_ = dnd.RegisterSource(src, func(*xt.Widget) string { return "x" })
	// dst is NOT registered as a target.
	dropped := false
	if err := dnd.Drag(src, dst); err != nil {
		t.Fatal(err)
	}
	if dropped {
		t.Error("drop fired without target registration")
	}
	if dnd.dragging || dnd.data != "" {
		t.Error("cancelled drag left state behind")
	}
}

func TestDragFromNonSourceIsNoop(t *testing.T) {
	_, dnd, src, dst := setup(t)
	var got string
	_ = dnd.RegisterTarget(dst, func(_ *xt.Widget, data string, _, _ int) { got = data })
	// src never registered as source: Btn2 on it does nothing.
	if err := dnd.Drag(src, dst); err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Errorf("unexpected drop %q", got)
	}
}

func TestUnregister(t *testing.T) {
	_, dnd, src, dst := setup(t)
	_ = dnd.RegisterSource(src, func(*xt.Widget) string { return "payload" })
	var drops int
	_ = dnd.RegisterTarget(dst, func(*xt.Widget, string, int, int) { drops++ })
	_ = dnd.Drag(src, dst)
	if drops != 1 {
		t.Fatalf("drops = %d", drops)
	}
	dnd.UnregisterTarget(dst)
	_ = dnd.Drag(src, dst)
	if drops != 1 {
		t.Errorf("drop fired after unregister (drops=%d)", drops)
	}
}

func TestContextIsPerApp(t *testing.T) {
	app1 := xt.NewTestApp("a1")
	app2 := xt.NewTestApp("a2")
	if Context(app1) == Context(app2) {
		t.Error("contexts must be per app")
	}
	if Context(app1) != Context(app1) {
		t.Error("context must be stable")
	}
}
