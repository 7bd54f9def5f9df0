package xaw

import (
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// SimpleMenuClass is the Athena popup menu shell; its children are Sme
// entries.
var SimpleMenuClass = &xt.Class{
	Name:      "SimpleMenu",
	Super:     xt.OverrideShellClass,
	Composite: true,
	Shell:     true,
	Resources: []xt.Resource{
		{Name: "label", Class: "Label", Type: xt.TString, Default: ""},
		{Name: "rowHeight", Class: "RowHeight", Type: xt.TDimension, Default: "0"},
		{Name: "topMargin", Class: "VerticalMargins", Type: xt.TDimension, Default: "2"},
		{Name: "bottomMargin", Class: "VerticalMargins", Type: xt.TDimension, Default: "2"},
		{Name: "popupOnEntry", Class: "Widget", Type: xt.TWidget, Default: ""},
		{Name: "menuOnScreen", Class: "Boolean", Type: xt.TBoolean, Default: "True"},
	},
	DefaultTranslations: `<EnterWindow>: highlight()
<LeaveWindow>: unhighlight()
<Motion>: highlight()
<BtnUp>: MenuNotify() MenuPopdown()`,
	Actions: map[string]xt.ActionProc{
		"highlight":     menuHighlight,
		"unhighlight":   menuUnhighlight,
		"notify":        menuNotify,
		"MenuNotify":    menuNotify,
		"MenuPopdown":   menuPopdown,
		"XtMenuPopdown": menuPopdown,
	},
	ChangeManaged: menuLayout,
	PreferredSize: menuPreferredSize,
	Redisplay:     menuRedisplay,
}

type menuPrivate struct {
	highlight int
}

func menuState(w *xt.Widget) *menuPrivate {
	st, ok := w.Private.(*menuPrivate)
	if !ok {
		st = &menuPrivate{highlight: -1}
		w.Private = st
	}
	return st
}

func menuEntries(w *xt.Widget) []*xt.Widget {
	var out []*xt.Widget
	for _, c := range w.Children() {
		if c.Class.IsSubclassOf(SmeClass) && c.IsManaged() {
			out = append(out, c)
		}
	}
	return out
}

func menuRowHeight(w *xt.Widget) int {
	if rh := w.Int(QRowHeight); rh > 0 {
		return rh
	}
	return 13 + 2
}

func menuLayout(w *xt.Widget) {
	rh := menuRowHeight(w)
	y := w.Int(QTopMargin)
	maxW := 40
	for _, e := range menuEntries(w) {
		ew, _ := e.PreferredSize()
		if ew > maxW {
			maxW = ew
		}
	}
	for _, e := range menuEntries(w) {
		e.SetChildGeometry(0, y, maxW, rh)
		y += rh
	}
	w.RequestResize(maxW, y+w.Int(QBottomMargin))
}

func menuPreferredSize(w *xt.Widget) (int, int) {
	rh := menuRowHeight(w)
	n := len(menuEntries(w))
	maxW := 40
	for _, e := range menuEntries(w) {
		ew, _ := e.PreferredSize()
		if ew > maxW {
			maxW = ew
		}
	}
	return maxW, n*rh + w.Int(QTopMargin) + w.Int(QBottomMargin)
}

func menuEntryAt(w *xt.Widget, y int) int {
	rh := menuRowHeight(w)
	idx := (y - w.Int(QTopMargin)) / rh
	if idx < 0 || idx >= len(menuEntries(w)) {
		return -1
	}
	return idx
}

// menuRepaintRow damages one entry row of the menu (no-op for -1).
func menuRepaintRow(w *xt.Widget, idx int) {
	entries := menuEntries(w)
	if idx < 0 || idx >= len(entries) {
		return
	}
	w.Damage(xproto.Rect{X: 0, Y: entries[idx].Int(xt.QY), W: w.Int(xt.QWidth), H: menuRowHeight(w)})
}

func menuHighlight(w *xt.Widget, ev *xproto.Event, _ []string) {
	st := menuState(w)
	old := st.highlight
	idx := menuEntryAt(w, ev.Y)
	if idx == old {
		return
	}
	st.highlight = idx
	menuRepaintRow(w, old)
	menuRepaintRow(w, idx)
}

func menuUnhighlight(w *xt.Widget, _ *xproto.Event, _ []string) {
	st := menuState(w)
	if st.highlight == -1 {
		return
	}
	old := st.highlight
	st.highlight = -1
	menuRepaintRow(w, old)
}

func menuNotify(w *xt.Widget, ev *xproto.Event, _ []string) {
	idx := menuState(w).highlight
	if ev != nil {
		if at := menuEntryAt(w, ev.Y); at >= 0 {
			idx = at
		}
	}
	entries := menuEntries(w)
	if idx < 0 || idx >= len(entries) {
		return
	}
	entries[idx].CallCallbacks("callback", nil)
}

func menuPopdown(w *xt.Widget, _ *xproto.Event, _ []string) {
	_ = w.Popdown()
}

// SmeClass is the menu-entry base class (Sme objects are windowless in
// Xaw; here they are lightweight widgets laid out by the menu).
var SmeClass = &xt.Class{
	Name:  "Sme",
	Super: xt.CoreClass,
	Resources: []xt.Resource{
		{Name: "callback", Class: "Callback", Type: xt.TCallback, Default: ""},
	},
	PreferredSize: func(w *xt.Widget) (int, int) { return 40, 15 },
}

// SmeBSBClass is the standard text menu entry (bitmap-string-bitmap).
var SmeBSBClass = &xt.Class{
	Name:  "SmeBSB",
	Super: SmeClass,
	Resources: []xt.Resource{
		{Name: "label", Class: "Label", Type: xt.TString, Default: ""},
		{Name: "font", Class: "Font", Type: xt.TFont, Default: "fixed"},
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "justify", Class: "Justify", Type: xt.TJustify, Default: "left"},
		{Name: "leftBitmap", Class: "LeftBitmap", Type: xt.TBitmap, Default: ""},
		{Name: "rightBitmap", Class: "RightBitmap", Type: xt.TBitmap, Default: ""},
		{Name: "leftMargin", Class: "HorizontalMargins", Type: xt.TDimension, Default: "4"},
		{Name: "rightMargin", Class: "HorizontalMargins", Type: xt.TDimension, Default: "4"},
		{Name: "vertSpace", Class: "VertSpace", Type: xt.TDimension, Default: "25"},
	},
	Initialize: func(w *xt.Widget) {
		if w.Str(QLabel) == "" && !w.Explicit(QLabel) {
			w.SetResourceValue(QLabel, w.Name)
		}
	},
	PreferredSize: func(w *xt.Widget) (int, int) {
		f := w.FontRes(QFont)
		return f.TextWidth(w.Str(QLabel)) + w.Int(QLeftMargin) + w.Int(QRightMargin), f.Height() + 2
	},
	Redisplay: func(w *xt.Widget) {
		d := w.Display()
		gc := d.NewGC()
		gc.Foreground = w.PixelRes(QForeground)
		gc.Font = w.FontRes(QFont)
		if w.ClipIntersects(w.Int(QLeftMargin), 1, gc.Font.TextWidth(w.Str(QLabel)), gc.Font.Height()) {
			d.DrawString(w.Window(), gc, w.Int(QLeftMargin), gc.Font.Ascent+1, w.Str(QLabel))
		}
	},
}

// SmeLineClass is the separator entry.
var SmeLineClass = &xt.Class{
	Name:  "SmeLine",
	Super: SmeClass,
	Resources: []xt.Resource{
		{Name: "lineWidth", Class: "LineWidth", Type: xt.TDimension, Default: "1"},
		{Name: "stipple", Class: "Stipple", Type: xt.TPixmap, Default: ""},
	},
	PreferredSize: func(w *xt.Widget) (int, int) { return 40, 4 },
	Redisplay: func(w *xt.Widget) {
		d := w.Display()
		gc := d.NewGC()
		if w.ClipIntersects(0, 2, w.Int(xt.QWidth), 1) {
			d.DrawLine(w.Window(), gc, 0, 2, w.Int(xt.QWidth), 2)
		}
	},
}

func menuRedisplay(w *xt.Widget) {
	d := w.Display()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
	hl := menuState(w).highlight
	if hl >= 0 {
		entries := menuEntries(w)
		if hl < len(entries) && w.ClipIntersects(0, entries[hl].Int(xt.QY), w.Int(xt.QWidth), menuRowHeight(w)) {
			gcH := d.NewGC()
			gcH.Foreground = xproto.Pixel{R: 200, G: 200, B: 255}
			d.FillRectangle(w.Window(), gcH, 0, entries[hl].Int(xt.QY), w.Int(xt.QWidth), menuRowHeight(w))
		}
	}
}
