package plotter

import (
	"testing"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

func newApp(t *testing.T) (*xt.App, *xt.Widget) {
	t.Helper()
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return app, top
}

func TestBarGraphValues(t *testing.T) {
	app, top := newApp(t)
	bg, err := app.CreateWidget("bars", BarGraphClass, top, map[string]string{"data": "1 4 2.5 8"}, true)
	if err != nil {
		t.Fatal(err)
	}
	vs := Values(bg)
	if len(vs) != 4 || vs[3] != 8 {
		t.Errorf("values = %v", vs)
	}
	top.Realize()
	app.Pump()
	// A fill op per bar plus the background clear appears in the log.
	ops := bg.Display().DrawLogFor(bg.Window())
	fills := 0
	for _, op := range ops {
		if op.Kind == xproto.OpFillRect {
			fills++
		}
	}
	if fills < 5 { // background + 4 bars
		t.Errorf("fill ops = %d", fills)
	}
	// Streaming new data redraws.
	if err := bg.SetValues("data", "9 9"); err != nil {
		t.Fatal(err)
	}
	if len(Values(bg)) != 2 {
		t.Error("data update lost")
	}
}

func TestBarGraphBadData(t *testing.T) {
	app, top := newApp(t)
	bg, _ := app.CreateWidget("b", BarGraphClass, top, map[string]string{"data": "1 oops"}, true)
	if Values(bg) != nil {
		t.Error("bad data should yield nil")
	}
	top.Realize()
	app.Pump() // must not panic
	_ = app
}

func TestLineGraphSeries(t *testing.T) {
	app, top := newApp(t)
	lg, _ := app.CreateWidget("lines", LineGraphClass, top, map[string]string{
		"data": "1 2 3\n4 5 6",
	}, true)
	series := SeriesOf(lg)
	if len(series) != 2 || series[1][2] != 6 {
		t.Errorf("series = %v", series)
	}
	top.Realize()
	app.Pump()
	ops := lg.Display().DrawLogFor(lg.Window())
	lines := 0
	for _, op := range ops {
		if op.Kind == xproto.OpDrawLine {
			lines++
		}
	}
	if lines != 4 { // 2 segments per 3-point series
		t.Errorf("line ops = %d", lines)
	}
}

func TestGraphLayoutLevels(t *testing.T) {
	app, top := newApp(t)
	g, _ := app.CreateWidget("g", GraphClass, top, map[string]string{
		"edges": "Core-Simple Simple-Label Label-Command Core-Composite",
	}, true)
	pos := NodePositions(g)
	if len(pos) != 5 {
		t.Fatalf("nodes = %v", pos)
	}
	if pos["Core"][1] >= pos["Simple"][1] {
		t.Error("Core should be above Simple")
	}
	if pos["Simple"][1] >= pos["Label"][1] {
		t.Error("Simple should be above Label")
	}
	if pos["Label"][1] >= pos["Command"][1] {
		t.Error("Label should be above Command")
	}
	if pos["Composite"][1] != pos["Simple"][1] {
		t.Error("Composite and Simple share level 1")
	}
	top.Realize()
	app.Pump()
	texts := g.Display().StringsDrawn(g.Window())
	if len(texts) != 5 {
		t.Errorf("node labels drawn = %v", texts)
	}
}

func TestGraphCycleIsSafe(t *testing.T) {
	app, top := newApp(t)
	g, _ := app.CreateWidget("g", GraphClass, top, map[string]string{"edges": "a-b b-a"}, true)
	pos := NodePositions(g)
	if len(pos) != 2 {
		t.Errorf("cycle positions = %v", pos)
	}
	top.Realize()
	app.Pump()
}
