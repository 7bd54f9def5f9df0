package xaw

import (
	"fmt"
	"strconv"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// ScrollbarClass provides a thumb with jumpProc (fractional position)
// and scrollProc (incremental pixels) callbacks.
var ScrollbarClass = &xt.Class{
	Name:  "Scrollbar",
	Super: SimpleClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "orientation", Class: "Orientation", Type: xt.TOrientation, Default: "vertical"},
		{Name: "length", Class: "Length", Type: xt.TDimension, Default: "100"},
		{Name: "thickness", Class: "Thickness", Type: xt.TDimension, Default: "14"},
		{Name: "shown", Class: "Shown", Type: xt.TFloat, Default: "0.1"},
		{Name: "topOfThumb", Class: "TopOfThumb", Type: xt.TFloat, Default: "0"},
		{Name: "minimumThumb", Class: "MinimumThumb", Type: xt.TDimension, Default: "7"},
		{Name: "scrollProc", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "jumpProc", Class: "Callback", Type: xt.TCallback, Default: ""},
	},
	DefaultTranslations: `<Btn1Down>: StartScroll(Forward)
<Btn3Down>: StartScroll(Backward)
<Btn2Down>: StartScroll(Continuous) MoveThumb() NotifyThumb()
<Btn2Motion>: MoveThumb() NotifyThumb()
<BtnUp>: NotifyScroll(Proportional) EndScroll()`,
	Actions: map[string]xt.ActionProc{
		"StartScroll":  scrollbarStartScroll,
		"MoveThumb":    scrollbarMoveThumb,
		"NotifyThumb":  scrollbarNotifyThumb,
		"NotifyScroll": scrollbarNotifyScroll,
		"EndScroll":    func(w *xt.Widget, _ *xproto.Event, _ []string) {},
	},
	PreferredSize: func(w *xt.Widget) (int, int) {
		if w.Str(QOrientation) == "horizontal" {
			return w.Int(QLength), w.Int(QThickness)
		}
		return w.Int(QThickness), w.Int(QLength)
	},
	Redisplay: scrollbarRedisplay,
}

type scrollbarPrivate struct {
	mode string // Forward, Backward, Continuous
}

func sbState(w *xt.Widget) *scrollbarPrivate {
	st, ok := w.Private.(*scrollbarPrivate)
	if !ok {
		st = &scrollbarPrivate{}
		w.Private = st
	}
	return st
}

func sbFloat(w *xt.Widget, q xt.Quark) float64 {
	if v, ok := w.Get(q); ok {
		if f, ok := v.(float64); ok {
			return f
		}
	}
	return 0
}

func sbLengthPixels(w *xt.Widget) int {
	if w.Str(QOrientation) == "horizontal" {
		return maxInt(w.Int(xt.QWidth), 1)
	}
	return maxInt(w.Int(xt.QHeight), 1)
}

func sbEventPos(w *xt.Widget, ev *xproto.Event) int {
	if w.Str(QOrientation) == "horizontal" {
		return ev.X
	}
	return ev.Y
}

func scrollbarStartScroll(w *xt.Widget, _ *xproto.Event, params []string) {
	if len(params) > 0 {
		sbState(w).mode = params[0]
	}
}

func scrollbarMoveThumb(w *xt.Widget, ev *xproto.Event, _ []string) {
	frac := float64(sbEventPos(w, ev)) / float64(sbLengthPixels(w))
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	old := sbThumbRect(w)
	w.SetResourceValue(QTopOfThumb, frac)
	w.Damage(old.Union(sbThumbRect(w)))
}

func scrollbarNotifyThumb(w *xt.Widget, _ *xproto.Event, _ []string) {
	frac := sbFloat(w, QTopOfThumb)
	w.CallCallbacks("jumpProc", xt.CallData{"f": fmt.Sprintf("%g", frac)})
}

func scrollbarNotifyScroll(w *xt.Widget, ev *xproto.Event, _ []string) {
	pos := sbEventPos(w, ev)
	delta := pos
	if sbState(w).mode == "Backward" {
		delta = -pos
	}
	w.CallCallbacks("scrollProc", xt.CallData{"d": strconv.Itoa(delta)})
}

// ScrollbarSetThumb implements XawScrollbarSetThumb. Only the union of
// the old and new thumb rectangles is damaged.
func ScrollbarSetThumb(w *xt.Widget, top, shown float64) {
	old := sbThumbRect(w)
	w.SetResourceValue(QTopOfThumb, top)
	w.SetResourceValue(QShown, shown)
	w.Damage(old.Union(sbThumbRect(w)))
}

// sbThumbRect returns the thumb rectangle in widget coordinates.
func sbThumbRect(w *xt.Widget) xproto.Rect {
	length := sbLengthPixels(w)
	top := int(sbFloat(w, QTopOfThumb) * float64(length))
	size := maxInt(int(sbFloat(w, QShown)*float64(length)), w.Int(QMinimumThumb))
	if w.Str(QOrientation) == "horizontal" {
		return xproto.Rect{X: top, Y: 1, W: size, H: w.Int(xt.QHeight) - 2}
	}
	return xproto.Rect{X: 1, Y: top, W: w.Int(xt.QWidth) - 2, H: size}
}

func scrollbarRedisplay(w *xt.Widget) {
	d := w.Display()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
	t := sbThumbRect(w)
	if w.ClipIntersects(t.X, t.Y, t.W, t.H) {
		gc.Foreground = w.PixelRes(QForeground)
		d.FillRectangle(w.Window(), gc, t.X, t.Y, t.W, t.H)
	}
}

// GripClass is the Paned grip: a small square with a callback.
var GripClass = &xt.Class{
	Name:  "Grip",
	Super: SimpleClass,
	Resources: []xt.Resource{
		{Name: "callback", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "gripIndent", Class: "GripIndent", Type: xt.TPosition, Default: "10"},
	},
	DefaultTranslations: `<Btn1Down>: GripAction(press)
<Btn1Up>: GripAction(release)`,
	Actions: map[string]xt.ActionProc{
		"GripAction": func(w *xt.Widget, _ *xproto.Event, params []string) {
			data := xt.CallData{}
			if len(params) > 0 {
				data["action"] = params[0]
			}
			w.CallCallbacks("callback", data)
		},
	},
	PreferredSize: func(w *xt.Widget) (int, int) { return 8, 8 },
}

// StripChartClass samples a value via its getValue callback at a fixed
// interval and scrolls the resulting graph (used by xnetstats-style
// monitors).
var StripChartClass = &xt.Class{
	Name:  "StripChart",
	Super: SimpleClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "highlight", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "getValue", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "update", Class: "Interval", Type: xt.TInt, Default: "10"},
		{Name: "minScale", Class: "Scale", Type: xt.TInt, Default: "1"},
		{Name: "jumpScroll", Class: "JumpScroll", Type: xt.TDimension, Default: "8"},
	},
	PreferredSize: func(w *xt.Widget) (int, int) { return 120, 40 },
	Redisplay:     stripChartRedisplay,
}

type stripChartPrivate struct {
	samples []float64
}

func chartState(w *xt.Widget) *stripChartPrivate {
	st, ok := w.Private.(*stripChartPrivate)
	if !ok {
		st = &stripChartPrivate{}
		w.Private = st
	}
	return st
}

// StripChartAddSample records a sample and scrolls the chart. The Wafe
// layer drives it from the getValue callback on a timer.
//
// The steady-state path damages only the new sample's column. Two cases
// still damage the whole chart: the sample raises the vertical scale
// (every bar's height changes), and the chart running out of columns —
// there the samples jump-scroll left by the jumpScroll resource in
// place, so scroll repaints happen once per jumpScroll samples rather
// than per sample and the slice never reallocates.
func StripChartAddSample(w *xt.Widget, v float64) {
	st := chartState(w)
	scale := float64(w.Int(QMinScale))
	for _, s := range st.samples {
		if s > scale {
			scale = s
		}
	}
	if max := maxInt(w.Int(xt.QWidth), 1); len(st.samples) >= max {
		j := maxInt(w.Int(QJumpScroll), 1)
		if j > len(st.samples) {
			j = len(st.samples)
		}
		n := copy(st.samples, st.samples[j:])
		st.samples = append(st.samples[:n], v)
		w.Damage(xproto.Rect{})
		return
	}
	st.samples = append(st.samples, v)
	if v > scale {
		w.Damage(xproto.Rect{})
		return
	}
	w.Damage(xproto.Rect{X: len(st.samples) - 1, Y: 0, W: 1, H: w.Int(xt.QHeight)})
}

// StripChartSamples returns the recorded samples (for tests).
func StripChartSamples(w *xt.Widget) []float64 {
	return append([]float64(nil), chartState(w).samples...)
}

func stripChartRedisplay(w *xt.Widget) {
	d := w.Display()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
	gc.Foreground = w.PixelRes(QForeground)
	st := chartState(w)
	scale := float64(w.Int(QMinScale))
	for _, s := range st.samples {
		if s > scale {
			scale = s
		}
	}
	h := w.Int(xt.QHeight)
	for i, s := range st.samples {
		if !w.ClipIntersects(i, 0, 1, h) {
			continue
		}
		bar := int(s / scale * float64(h-2))
		d.DrawLine(w.Window(), gc, i, h-1, i, h-1-bar)
	}
}
