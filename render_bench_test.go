package wafe

import (
	"testing"

	"wafe/internal/xaw"
	"wafe/internal/xt"
)

// Render benchmarks measure the damage-region pipeline: steady-state
// single-widget updates must not allocate (the display list, scratch
// buffers and damage regions are all reused), and expose storms must
// collapse through region coalescing instead of fanning out into
// per-rect repaints. cmd/wafebench gates on SingleWidgetUpdate.

func renderApp(b *testing.B) (*xt.App, *xt.Widget) {
	b.Helper()
	app := xt.NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		b.Fatal(err)
	}
	return app, top
}

// BenchmarkRender_SingleWidgetUpdate is the headline gate: one
// StripChart sample in steady state (chart full, jump-scrolling) plus
// an event-loop pump, required to run at 0 B/op.
func BenchmarkRender_SingleWidgetUpdate(b *testing.B) {
	app, top := renderApp(b)
	chart, err := app.CreateWidget("chart", xaw.StripChartClass, top, nil, true)
	if err != nil {
		b.Fatal(err)
	}
	top.Realize()
	app.Pump()
	// Warm past the fill phase and through several jump-scroll cycles so
	// the slice, display-list and damage-region capacities are all at
	// their steady-state sizes before the timed loop.
	for i := 0; i < 500; i++ {
		xaw.StripChartAddSample(chart, float64(i%7))
		app.Pump()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xaw.StripChartAddSample(chart, float64(i%7))
		app.Pump()
	}
}

// BenchmarkRender_ListHighlight moves a List highlight across 100 items
// and settles; each move repaints two cells, not the whole list.
func BenchmarkRender_ListHighlight(b *testing.B) {
	app, top := renderApp(b)
	items := "i0"
	for i := 1; i < 100; i++ {
		items += "\ni" + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	list, err := app.CreateWidget("list", xaw.ListClass, top, map[string]string{"list": items}, true)
	if err != nil {
		b.Fatal(err)
	}
	top.Realize()
	app.Pump()
	xaw.ListHighlight(list, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xaw.ListHighlight(list, i%100)
		app.Pump()
	}
}

// BenchmarkRender_ExposeStorm injects 16 overlapping damage rects per
// iteration; coalescing must deliver them as a handful of clipped
// redraws, not 16 full repaints.
func BenchmarkRender_ExposeStorm(b *testing.B) {
	app, top := renderApp(b)
	label, err := app.CreateWidget("l", xaw.LabelClass, top, map[string]string{"label": "storm target"}, true)
	if err != nil {
		b.Fatal(err)
	}
	top.Realize()
	app.Pump()
	d := label.Display()
	win := label.Window()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			d.InjectExposeRect(win, (j%4)*10, (j/4)*5, 12, 7)
		}
		app.Pump()
	}
}

// BenchmarkRender_ScrollbarThumb drags a scrollbar thumb and settles;
// each move repaints the union of the old and new thumb rectangles.
func BenchmarkRender_ScrollbarThumb(b *testing.B) {
	app, top := renderApp(b)
	sb, err := app.CreateWidget("sb", xaw.ScrollbarClass, top, nil, true)
	if err != nil {
		b.Fatal(err)
	}
	top.Realize()
	app.Pump()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xaw.ScrollbarSetThumb(sb, float64(i%10)/10, 0.1)
		app.Pump()
	}
}
