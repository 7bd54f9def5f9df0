package core

import (
	"strings"
	"testing"
	"wafe/internal/xt"
)

// TestQuickstartGoldenSnapshot pins the exact ASCII rendering of the
// paper's hello-world script — a regression net over the whole
// rendering path (layout, fonts, snapshot grid).
func TestQuickstartGoldenSnapshot(t *testing.T) {
	w := NewTest()
	eval(t, w, `command hello topLevel label "Wafe new World" callback "echo Goodbye; quit"`)
	eval(t, w, "realize")
	snap := eval(t, w, "snapshot")
	want := strings.Join([]string{
		"+--------------+",
		"Wafe new World-+",
		"",
	}, "\n")
	if snap != want {
		t.Errorf("snapshot drifted:\n%q\nwant:\n%q", snap, want)
	}
	tree := eval(t, w, "widgetTree")
	wantTree := "topLevel (ApplicationShell) 94x19+0+0\n  hello (Command) 92x17+0+0"
	if tree != wantTree {
		t.Errorf("widgetTree drifted:\n%q\nwant:\n%q", tree, wantTree)
	}
}

// TestPrimeFactorsGoldenGeometry pins the layout of the paper's demo
// tree: explicit widths honoured, constraint rows and columns exact.
func TestPrimeFactorsGoldenGeometry(t *testing.T) {
	w := NewTest()
	eval(t, w, `
		form top topLevel
		asciiText input top editType edit width 200
		label result top label {} width 200 fromVert input
		command quitBtn top fromVert result
		label info top fromVert result fromHoriz quitBtn label {} borderWidth 0 width 150
		realize
	`)
	type geo struct{ x, y, w int }
	want := map[string]geo{
		"input":   {4, 4, 200},
		"result":  {4, 27, 200},
		"quitBtn": {4, 50, 50},
		"info":    {60, 50, 150},
	}
	for name, g := range want {
		wid := w.App.WidgetByName(name)
		if wid.Int(xt.QX) != g.x || wid.Int(xt.QY) != g.y || wid.Int(xt.QWidth) != g.w {
			t.Errorf("%s geometry = %dx?+%d+%d, want width=%d x=%d y=%d",
				name, wid.Int(xt.QWidth), wid.Int(xt.QX), wid.Int(xt.QY), g.w, g.x, g.y)
		}
	}
}

// TestGeometryDeferredToRealize: as on X11R5, managing children into an
// unrealized form lays nothing out; realize runs the layout once, so
// gV reports creation or default geometry before it and the settled
// geometry after.
func TestGeometryDeferredToRealize(t *testing.T) {
	w := NewTest()
	eval(t, w, `
		form f topLevel
		label a f label hello
		label b f fromVert a label world
	`)
	geom := func() string { return eval(t, w, "list [gV a width] [gV b y] [gV f width] [gV f height]") }
	if got := geom(); got != "0 0 0 0" {
		t.Errorf("before realize: a width, b y, f width, f height = %q, want the defaults \"0 0 0 0\"", got)
	}
	eval(t, w, "realize")
	if got := geom(); got != "38 27 48 50" {
		t.Errorf("after realize: a width, b y, f width, f height = %q, want \"38 27 48 50\"", got)
	}
}
