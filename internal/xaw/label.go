package xaw

import (
	"strings"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// LabelClass displays a text string or bitmap. Its resource list —
// Core (18) + Simple/Xaw3d (13) + Label (11) — totals the 42 resources
// the paper reports for getResourceList on a Label instance.
var LabelClass = &xt.Class{
	Name:  "Label",
	Super: SimpleClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "font", Class: "Font", Type: xt.TFont, Default: "fixed"},
		{Name: "fontSet", Class: "FontSet", Type: xt.TString, Default: ""},
		{Name: "label", Class: "Label", Type: xt.TString, Default: ""},
		{Name: "encoding", Class: "Encoding", Type: xt.TString, Default: "8bit"},
		{Name: "justify", Class: "Justify", Type: xt.TJustify, Default: "center"},
		{Name: "internalWidth", Class: "Width", Type: xt.TDimension, Default: "4"},
		{Name: "internalHeight", Class: "Height", Type: xt.TDimension, Default: "2"},
		{Name: "leftBitmap", Class: "LeftBitmap", Type: xt.TBitmap, Default: ""},
		{Name: "bitmap", Class: "Pixmap", Type: xt.TBitmap, Default: ""},
		{Name: "resize", Class: "Resize", Type: xt.TBoolean, Default: "True"},
	},
	Initialize: func(w *xt.Widget) {
		// A Label defaults its label to the widget name, as Xaw does.
		if w.Str(QLabel) == "" && !w.Explicit(QLabel) {
			w.SetResourceValue(QLabel, w.Name)
		}
	},
	PreferredSize: labelPreferredSize,
	Redisplay:     labelRedisplay,
	SetValues: func(w *xt.Widget, changed map[string]bool) {
		if (changed["label"] || changed["font"]) && w.Bool(QResize) && !w.Explicit(xt.QWidth) {
			pw, ph := labelPreferredSize(w)
			w.RequestResize(pw, ph)
		}
	},
}

// labelPreferredSize measures the label's lines in place: layout asks
// for it often, so it must not split the label into a slice.
func labelPreferredSize(w *xt.Widget) (int, int) {
	if pm := labelBitmap(w); pm != nil {
		return pm.Width + 2*w.Int(QInternalWidth), pm.Height + 2*w.Int(QInternalHeight)
	}
	f := w.FontRes(QFont)
	width, lines := 0, 0
	for text, more := labelText(w), true; more; lines++ {
		var line string
		line, text, more = strings.Cut(text, "\n")
		width = max(width, f.TextWidth(line))
	}
	return width + 2*w.Int(QInternalWidth), f.Height()*lines + 2*w.Int(QInternalHeight)
}

func labelText(w *xt.Widget) string { return w.Str(QLabel) }

func labelBitmap(w *xt.Widget) *xproto.Pixmap {
	if v, ok := w.Get(QBitmap); ok {
		if pm, ok := v.(*xproto.Pixmap); ok {
			return pm
		}
	}
	return nil
}

func labelRedisplay(w *xt.Widget) {
	d := w.Display()
	win := w.Window()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(win, gc, clip.X, clip.Y, clip.W, clip.H)
	if pm := labelBitmap(w); pm != nil {
		if w.ClipIntersects(w.Int(QInternalWidth), w.Int(QInternalHeight), pm.Width, pm.Height) {
			d.CopyPixmap(win, pm, w.Int(QInternalWidth), w.Int(QInternalHeight))
		}
		return
	}
	gc.Foreground = w.PixelRes(QForeground)
	gc.Font = w.FontRes(QFont)
	f := gc.Font
	y := w.Int(QInternalHeight) + f.Ascent
	drawLine := func(line string) {
		x := w.Int(QInternalWidth)
		switch w.Str(QJustify) {
		case "center":
			if extra := w.Int(xt.QWidth) - 2*w.Int(QInternalWidth) - f.TextWidth(line); extra > 0 {
				x += extra / 2
			}
		case "right":
			if extra := w.Int(xt.QWidth) - 2*w.Int(QInternalWidth) - f.TextWidth(line); extra > 0 {
				x += extra
			}
		}
		if w.ClipIntersects(x, y-f.Ascent, f.TextWidth(line), f.Height()) {
			d.DrawString(win, gc, x, y, line)
		}
		y += f.Height()
	}
	for text, more := labelText(w), true; more; {
		var line string
		line, text, more = strings.Cut(text, "\n")
		drawLine(line)
	}
}

// CommandClass is a pushbutton: a Label with a callback list and the
// set/notify/highlight action protocol.
var CommandClass = &xt.Class{
	Name:  "Command",
	Super: LabelClass,
	Resources: []xt.Resource{
		{Name: "callback", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "highlightThickness", Class: "Thickness", Type: xt.TDimension, Default: "2"},
		{Name: "shapeStyle", Class: "ShapeStyle", Type: xt.TShapeStyle, Default: "rectangle"},
		{Name: "cornerRoundPercent", Class: "CornerRoundPercent", Type: xt.TDimension, Default: "25"},
	},
	DefaultTranslations: `<EnterWindow>: highlight()
<LeaveWindow>: reset()
<Btn1Down>: set()
<Btn1Up>: notify() unset()`,
	Actions: map[string]xt.ActionProc{
		"set":       actionSet,
		"unset":     actionUnset,
		"reset":     actionReset,
		"highlight": actionHighlight,
		"notify":    actionNotify,
	},
	PreferredSize: labelPreferredSize,
	Redisplay:     commandRedisplay,
}

// commandState is the per-instance pressed/highlight state.
type commandState struct {
	set         bool
	highlighted bool
}

func cmdState(w *xt.Widget) *commandState {
	st, ok := w.Private.(*commandState)
	if !ok {
		st = &commandState{}
		w.Private = st
	}
	return st
}

func actionSet(w *xt.Widget, _ *xproto.Event, _ []string) {
	cmdState(w).set = true
	w.Damage(xproto.Rect{})
}

func actionUnset(w *xt.Widget, _ *xproto.Event, _ []string) {
	cmdState(w).set = false
	w.Damage(xproto.Rect{})
}

func actionReset(w *xt.Widget, _ *xproto.Event, _ []string) {
	st := cmdState(w)
	st.set = false
	st.highlighted = false
	w.Damage(xproto.Rect{})
}

func actionHighlight(w *xt.Widget, _ *xproto.Event, _ []string) {
	cmdState(w).highlighted = true
	w.Damage(xproto.Rect{})
}

func actionNotify(w *xt.Widget, _ *xproto.Event, _ []string) {
	if cmdState(w).set {
		w.CallCallbacks("callback", nil)
	}
}

func commandRedisplay(w *xt.Widget) {
	labelRedisplay(w)
	st := cmdState(w)
	d := w.Display()
	gc := d.NewGC()
	if st.set {
		gc.Foreground = w.PixelRes(QBottomShadowPixel)
	} else {
		gc.Foreground = w.PixelRes(QTopShadowPixel)
	}
	// The shadow and highlight rings span the whole widget, so any
	// non-empty clip intersects them; the check is the clip contract.
	if w.ClipIntersects(0, 0, w.Int(xt.QWidth), w.Int(xt.QHeight)) {
		d.DrawRectangle(w.Window(), gc, 0, 0, w.Int(xt.QWidth)-1, w.Int(xt.QHeight)-1)
		if st.highlighted {
			gc.Foreground = w.PixelRes(QForeground)
			t := w.Int(QHighlightThickness)
			d.DrawRectangle(w.Window(), gc, t/2, t/2, w.Int(xt.QWidth)-1-t, w.Int(xt.QHeight)-1-t)
		}
	}
}

// ToggleClass is a Command that latches its state.
var ToggleClass = &xt.Class{
	Name:  "Toggle",
	Super: CommandClass,
	Resources: []xt.Resource{
		{Name: "state", Class: "State", Type: xt.TBoolean, Default: "False"},
		{Name: "radioGroup", Class: "Widget", Type: xt.TWidget, Default: ""},
		{Name: "radioData", Class: "RadioData", Type: xt.TString, Default: ""},
	},
	DefaultTranslations: `<EnterWindow>: highlight()
<LeaveWindow>: reset()
<Btn1Up>: toggle() notify()`,
	Actions: map[string]xt.ActionProc{
		"toggle": actionToggle,
		"notify": func(w *xt.Widget, _ *xproto.Event, _ []string) {
			w.CallCallbacks("callback", xt.CallData{"state": boolStr(w.Bool(QState))})
		},
	},
	PreferredSize: labelPreferredSize,
	Redisplay:     toggleRedisplay,
}

func actionToggle(w *xt.Widget, _ *xproto.Event, _ []string) {
	nw := !w.Bool(QState)
	w.SetResourceValue(QState, nw)
	// Radio-group semantics: turning one member on turns the rest off.
	if nw {
		if v, ok := w.Get(QRadioGroup); ok {
			if leader, ok := v.(*xt.Widget); ok && leader != nil {
				for _, name := range w.App().WidgetNames() {
					other := w.App().WidgetByName(name)
					if other == nil || other == w || other.Class != w.Class {
						continue
					}
					if g, ok := other.Get(QRadioGroup); ok {
						if gw, ok := g.(*xt.Widget); ok && gw == leader && other.Bool(QState) {
							other.SetResourceValue(QState, false)
							other.Damage(xproto.Rect{})
						}
					}
				}
			}
		}
	}
	w.Damage(xproto.Rect{})
}

func toggleRedisplay(w *xt.Widget) {
	labelRedisplay(w)
	d := w.Display()
	gc := d.NewGC()
	if w.Bool(QState) && w.ClipIntersects(0, 0, w.Int(xt.QWidth), w.Int(xt.QHeight)) {
		gc.Foreground = w.PixelRes(QForeground)
		d.DrawRectangle(w.Window(), gc, 0, 0, w.Int(xt.QWidth)-1, w.Int(xt.QHeight)-1)
		d.DrawRectangle(w.Window(), gc, 1, 1, w.Int(xt.QWidth)-3, w.Int(xt.QHeight)-3)
	}
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// MenuButtonClass pops up a named menu shell; its PopupMenu action is
// the one the paper rebinds to <EnterWindow>.
var MenuButtonClass = &xt.Class{
	Name:  "MenuButton",
	Super: CommandClass,
	Resources: []xt.Resource{
		{Name: "menuName", Class: "MenuName", Type: xt.TString, Default: "menu"},
	},
	DefaultTranslations: `<EnterWindow>: highlight()
<LeaveWindow>: reset()
<Btn1Down>: reset() PopupMenu()`,
	Actions: map[string]xt.ActionProc{
		"PopupMenu": actionPopupMenu,
	},
	PreferredSize: labelPreferredSize,
	Redisplay:     commandRedisplay,
}

func actionPopupMenu(w *xt.Widget, ev *xproto.Event, _ []string) {
	menu := w.App().WidgetByName(w.Str(QMenuName))
	if menu == nil || !menu.Class.Shell {
		return
	}
	// Place under the button.
	if ev != nil {
		_ = menu.PositionShell(ev.XRoot, ev.YRoot)
	}
	_ = menu.Popup(xt.GrabExclusive)
}
