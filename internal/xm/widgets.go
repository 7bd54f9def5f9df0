package xm

import (
	"strings"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// Handles of the Motif resources Go code reads, the quarks the
// accessors take. Each is interned once, while the package
// initialises.
var (
	QBottomShadowColor = xt.StringToQuark("bottomShadowColor")
	QColumns           = xt.StringToQuark("columns")
	QEditable          = xt.StringToQuark("editable")
	QFontList          = xt.StringToQuark("fontList")
	QForeground        = xt.StringToQuark("foreground")
	QHistoryItems      = xt.StringToQuark("historyItems")
	QHistoryMaxItems   = xt.StringToQuark("historyMaxItems")
	QLabelString       = xt.StringToQuark("labelString")
	QMarginHeight      = xt.StringToQuark("marginHeight")
	QMarginWidth       = xt.StringToQuark("marginWidth")
	QOrientation       = xt.StringToQuark("orientation")
	QRows              = xt.StringToQuark("rows")
	QShadowThickness   = xt.StringToQuark("shadowThickness")
	QSpacing           = xt.StringToQuark("spacing")
	QTopShadowColor    = xt.StringToQuark("topShadowColor")
	QValue             = xt.StringToQuark("value")
)

// XmPrimitiveClass is the Motif primitive base class.
var XmPrimitiveClass = &xt.Class{
	Name:  "XmPrimitive",
	Super: xt.CoreClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "shadowThickness", Class: "ShadowThickness", Type: xt.TDimension, Default: "2"},
		{Name: "highlightThickness", Class: "HighlightThickness", Type: xt.TDimension, Default: "2"},
		{Name: "topShadowColor", Class: "TopShadowColor", Type: xt.TPixel, Default: "gray90"},
		{Name: "bottomShadowColor", Class: "BottomShadowColor", Type: xt.TPixel, Default: "gray50"},
		{Name: "traversalOn", Class: "TraversalOn", Type: xt.TBoolean, Default: "True"},
	},
}

// XmLabelClass renders a compound string (labelString) with a fontList.
var XmLabelClass = &xt.Class{
	Name:  "XmLabel",
	Super: XmPrimitiveClass,
	Resources: []xt.Resource{
		// fontList precedes labelString: the XmString converter needs
		// the font list to resolve tags, and resources initialize in
		// declaration order.
		{Name: "fontList", Class: "FontList", Type: xt.TFontList, Default: "fixed=ft"},
		{Name: "labelString", Class: "XmString", Type: xt.TXmString, Default: ""},
		{Name: "alignment", Class: "Alignment", Type: xt.TString, Default: "center"},
		{Name: "marginWidth", Class: "MarginWidth", Type: xt.TDimension, Default: "2"},
		{Name: "marginHeight", Class: "MarginHeight", Type: xt.TDimension, Default: "2"},
		{Name: "labelType", Class: "LabelType", Type: xt.TString, Default: "string"},
	},
	Initialize: func(w *xt.Widget) {
		if LabelXmString(w) == nil && !w.Explicit(QLabelString) {
			w.SetResourceValue(QLabelString, &XmString{Segments: []Segment{{Text: w.Name}}, source: w.Name})
		}
	},
	PreferredSize: xmLabelPreferredSize,
	Redisplay:     xmLabelRedisplay,
}

// LabelXmString returns the widget's labelString value.
func LabelXmString(w *xt.Widget) *XmString {
	if v, ok := w.Get(QLabelString); ok {
		if xs, ok := v.(*XmString); ok {
			return xs
		}
	}
	return nil
}

// LabelFontList returns the widget's fontList value.
func LabelFontList(w *xt.Widget) *FontList {
	if v, ok := w.Get(QFontList); ok {
		if fl, ok := v.(*FontList); ok {
			return fl
		}
	}
	return nil
}

func segmentsOf(w *xt.Widget) []Segment {
	xs := LabelXmString(w)
	if xs == nil {
		return nil
	}
	return xs.Segments
}

func fontFor(w *xt.Widget, tag string) *xproto.Font {
	fl := LabelFontList(w)
	if fl != nil {
		if pat, ok := fl.Lookup(tag); ok {
			return xproto.LoadFont(pat)
		}
	}
	return xproto.LoadFont("fixed")
}

func xmLabelPreferredSize(w *xt.Widget) (int, int) {
	width := 0
	height := 13
	for _, seg := range segmentsOf(w) {
		f := fontFor(w, seg.FontTag)
		width += f.TextWidth(seg.Text)
		if f.Height() > height {
			height = f.Height()
		}
	}
	return width + 2*w.Int(QMarginWidth) + 2*w.Int(QShadowThickness),
		height + 2*w.Int(QMarginHeight) + 2*w.Int(QShadowThickness)
}

func xmLabelRedisplay(w *xt.Widget) {
	d := w.Display()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
	gc.Foreground = w.PixelRes(QForeground)
	x := w.Int(QMarginWidth) + w.Int(QShadowThickness)
	for _, seg := range segmentsOf(w) {
		f := fontFor(w, seg.FontTag)
		gc.Font = f
		if !w.ClipIntersects(x, w.Int(QMarginHeight), f.TextWidth(seg.Text), f.Height()) {
			x += f.TextWidth(seg.Text)
			continue
		}
		text := seg.Text
		if seg.Direction == "rtl" {
			r := []rune(text)
			for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
				r[i], r[j] = r[j], r[i]
			}
			text = string(r)
		}
		d.DrawString(w.Window(), gc, x, w.Int(QMarginHeight)+f.Ascent, text)
		x += f.TextWidth(seg.Text)
	}
}

// XmPushButtonClass fires armCallback on press and activateCallback on
// release, the Motif activation protocol the paper's predefined-
// callback example binds to.
var XmPushButtonClass = &xt.Class{
	Name:  "XmPushButton",
	Super: XmLabelClass,
	Resources: []xt.Resource{
		{Name: "armCallback", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "activateCallback", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "disarmCallback", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "armColor", Class: "ArmColor", Type: xt.TPixel, Default: "gray75"},
		{Name: "fillOnArm", Class: "FillOnArm", Type: xt.TBoolean, Default: "True"},
	},
	DefaultTranslations: `<Btn1Down>: Arm()
<Btn1Up>: Activate() Disarm()`,
	Actions: map[string]xt.ActionProc{
		"Arm": func(w *xt.Widget, _ *xproto.Event, _ []string) {
			armState(w).armed = true
			w.CallCallbacks("armCallback", nil)
			w.Damage(xproto.Rect{})
		},
		"Activate": func(w *xt.Widget, _ *xproto.Event, _ []string) {
			if armState(w).armed {
				w.CallCallbacks("activateCallback", nil)
			}
		},
		"Disarm": func(w *xt.Widget, _ *xproto.Event, _ []string) {
			armState(w).armed = false
			w.CallCallbacks("disarmCallback", nil)
			w.Damage(xproto.Rect{})
		},
	},
	PreferredSize: xmLabelPreferredSize,
	Redisplay:     xmLabelRedisplay,
}

type pushState struct{ armed bool }

func armState(w *xt.Widget) *pushState {
	// A cascade button keeps its arming beside its highlight.
	if cs, ok := w.Private.(*cascadeState); ok {
		return &cs.pushState
	}
	st, ok := w.Private.(*pushState)
	if !ok {
		st = &pushState{}
		w.Private = st
	}
	return st
}

// XmCascadeButtonClass is the menu-bar button; CascadeButtonHighlight
// is the function the paper's code-generation example wraps as
// mCascadeButtonHighlight.
var XmCascadeButtonClass = &xt.Class{
	Name:  "XmCascadeButton",
	Super: XmPushButtonClass,
	Resources: []xt.Resource{
		{Name: "subMenuId", Class: "Widget", Type: xt.TWidget, Default: ""},
		{Name: "cascadingCallback", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "mappingDelay", Class: "MappingDelay", Type: xt.TInt, Default: "180"},
	},
	Initialize:    func(w *xt.Widget) { w.Private = &cascadeState{} },
	PreferredSize: xmLabelPreferredSize,
	Redisplay:     xmCascadeRedisplay,
}

// xmCascadeRedisplay draws the label and, while the button is
// highlighted, the shadow border Motif draws in the shadowThickness
// the button reserves on each side: light above and left, dark below
// and right.
func xmCascadeRedisplay(w *xt.Widget) {
	xmLabelRedisplay(w)
	t := w.Int(QShadowThickness)
	if !cascadeSt(w).highlighted || t <= 0 {
		return
	}
	wd, ht := w.Int(xt.QWidth), w.Int(xt.QHeight)
	d, clip := w.Display(), w.Clip()
	gc := d.NewGC()
	for _, edge := range []struct {
		color xt.Quark
		r     xproto.Rect
	}{
		{QTopShadowColor, xproto.Rect{W: wd, H: t}},
		{QTopShadowColor, xproto.Rect{W: t, H: ht}},
		{QBottomShadowColor, xproto.Rect{Y: ht - t, W: wd, H: t}},
		{QBottomShadowColor, xproto.Rect{X: wd - t, W: t, H: ht}},
	} {
		if r := edge.r.Intersect(clip); !r.Empty() {
			gc.Foreground = w.PixelRes(edge.color)
			d.FillRectangle(w.Window(), gc, r.X, r.Y, r.W, r.H)
		}
	}
}

type cascadeState struct {
	pushState
	highlighted bool
}

func cascadeSt(w *xt.Widget) *cascadeState { return w.Private.(*cascadeState) }

// CascadeButtonHighlight implements XmCascadeButtonHighlight(widget,
// boolean) — the two-argument example in the paper's spec language.
func CascadeButtonHighlight(w *xt.Widget, highlight bool) {
	cascadeSt(w).highlighted = highlight
	w.Damage(xproto.Rect{})
}

// XmRowColumnClass lays children out in rows/columns (menus, menu bars,
// radio boxes).
var XmRowColumnClass = &xt.Class{
	Name:      "XmRowColumn",
	Super:     xt.CompositeClass,
	Composite: true,
	Resources: []xt.Resource{
		{Name: "orientation", Class: "Orientation", Type: xt.TOrientation, Default: "vertical"},
		{Name: "numColumns", Class: "NumColumns", Type: xt.TInt, Default: "1"},
		{Name: "spacing", Class: "Spacing", Type: xt.TDimension, Default: "3"},
		{Name: "marginWidth", Class: "MarginWidth", Type: xt.TDimension, Default: "3"},
		{Name: "marginHeight", Class: "MarginHeight", Type: xt.TDimension, Default: "3"},
		{Name: "rowColumnType", Class: "RowColumnType", Type: xt.TString, Default: "workArea"},
	},
	ChangeManaged: rowColumnLayout,
	PreferredSize: rowColumnPreferredSize,
	Resize:        func(w *xt.Widget) { rowColumnPlace(w) },
}

func rowColumnPlace(w *xt.Widget) (int, int) {
	mw, mh, sp := w.Int(QMarginWidth), w.Int(QMarginHeight), w.Int(QSpacing)
	x, y := mw, mh
	maxX, maxY := 1, 1
	horizontal := w.Str(QOrientation) == "horizontal"
	for _, c := range w.ManagedChildren() {
		cw, ch := c.PreferredSize()
		c.SetChildGeometry(x, y, cw, ch)
		if horizontal {
			x += cw + sp
			maxX = x
			if y+ch+mh > maxY {
				maxY = y + ch + mh
			}
		} else {
			y += ch + sp
			maxY = y
			if x+cw+mw > maxX {
				maxX = x + cw + mw
			}
		}
	}
	return maxX, maxY
}

func rowColumnLayout(w *xt.Widget) {
	maxX, maxY := rowColumnPlace(w)
	if !w.Explicit(xt.QWidth) || !w.Explicit(xt.QHeight) {
		nw, nh := w.Int(xt.QWidth), w.Int(xt.QHeight)
		if !w.Explicit(xt.QWidth) {
			nw = maxX
		}
		if !w.Explicit(xt.QHeight) {
			nh = maxY
		}
		w.RequestResize(nw, nh)
	}
}

func rowColumnPreferredSize(w *xt.Widget) (int, int) { return rowColumnPlace(w) }

// xmTextTranslations edit an XmText's value and activate it on Return.
const xmTextTranslations = `<Key>Return: activate()
<Key>BackSpace: delete-previous-character()
<KeyPress>: self-insert()`

// XmTextClass is the Motif text editor (string-valued "value").
var XmTextClass = &xt.Class{
	Name:  "XmText",
	Super: XmPrimitiveClass,
	Resources: []xt.Resource{
		{Name: "value", Class: "Value", Type: xt.TString, Default: ""},
		{Name: "editable", Class: "Editable", Type: xt.TBoolean, Default: "True"},
		{Name: "columns", Class: "Columns", Type: xt.TInt, Default: "20"},
		{Name: "rows", Class: "Rows", Type: xt.TInt, Default: "1"},
		{Name: "cursorPosition", Class: "CursorPosition", Type: xt.TInt, Default: "0"},
		{Name: "valueChangedCallback", Class: "Callback", Type: xt.TCallback, Default: ""},
		{Name: "activateCallback", Class: "Callback", Type: xt.TCallback, Default: ""},
	},
	DefaultTranslations: xmTextTranslations,
	Actions: map[string]xt.ActionProc{
		"self-insert": func(w *xt.Widget, ev *xproto.Event, _ []string) {
			if !w.Bool(QEditable) || ev.Rune < 0x20 {
				return
			}
			TextInsert(w, string(ev.Rune))
		},
		"activate": func(w *xt.Widget, _ *xproto.Event, _ []string) {
			w.CallCallbacks("activateCallback", xt.CallData{"value": w.Str(QValue)})
		},
		"delete-previous-character": func(w *xt.Widget, _ *xproto.Event, _ []string) {
			if !w.Bool(QEditable) {
				return
			}
			v := w.Str(QValue)
			if len(v) == 0 {
				return
			}
			w.SetResourceValue(QValue, v[:len(v)-1])
			w.CallCallbacks("valueChangedCallback", nil)
			w.Damage(xproto.Rect{})
		},
	},
	PreferredSize: func(w *xt.Widget) (int, int) {
		f := xproto.LoadFont("fixed")
		return w.Int(QColumns)*f.Width + 8, w.Int(QRows)*f.Height() + 8
	},
	Redisplay: func(w *xt.Widget) {
		d := w.Display()
		clip := w.Clip()
		gc := d.NewGC()
		gc.Foreground = w.PixelRes(xt.QBackground)
		d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
		gc.Foreground = w.PixelRes(QForeground)
		if v := w.Str(QValue); w.ClipIntersects(4, 4, gc.Font.TextWidth(v), gc.Font.Height()) {
			d.DrawString(w.Window(), gc, 4, gc.Font.Ascent+4, v)
		}
	},
}

// TextInsert appends text at the cursor (XmTextInsert, simplified to
// end-insertion which is all the demos use).
func TextInsert(w *xt.Widget, s string) {
	w.SetResourceValue(QValue, w.Str(QValue)+s)
	w.CallCallbacks("valueChangedCallback", nil)
	w.Damage(xproto.Rect{})
}

// XmCommandClass is the Motif command widget: a prompt plus a command
// history; XmCommandAppendValue is the naming-convention example
// (mCommandAppendValue) in the paper. It edits its value as XmText
// does, and Return enters the value instead of activating it.
var XmCommandClass = &xt.Class{
	Name:  "XmCommand",
	Super: XmTextClass,
	Resources: []xt.Resource{
		{Name: "promptString", Class: "XmString", Type: xt.TXmString, Default: ""},
		{Name: "historyItems", Class: "StringList", Type: xt.TStringList, Default: ""},
		{Name: "historyMaxItems", Class: "HistoryMaxItems", Type: xt.TInt, Default: "100"},
		{Name: "commandEnteredCallback", Class: "Callback", Type: xt.TCallback, Default: ""},
	},
	DefaultTranslations: xmTextTranslations,
	Actions: map[string]xt.ActionProc{
		"activate": func(w *xt.Widget, _ *xproto.Event, _ []string) { commandEnter(w) },
	},
}

// commandEnter enters the current value into the history, keeping the
// last historyMaxItems, clears the value and fires
// commandEnteredCallback.
func commandEnter(w *xt.Widget) {
	v := strings.TrimSpace(w.Str(QValue))
	if v == "" {
		return
	}
	hist := append(w.StringList(QHistoryItems), v)
	if max := w.Int(QHistoryMaxItems); max > 0 && len(hist) > max {
		hist = hist[len(hist)-max:]
	}
	w.SetResourceValue(QHistoryItems, hist)
	w.SetResourceValue(QValue, "")
	w.CallCallbacks("commandEnteredCallback", xt.CallData{"value": v})
	w.Damage(xproto.Rect{})
}

// CommandAppendValue implements XmCommandAppendValue: append text to
// the current command line.
func CommandAppendValue(w *xt.Widget, s string) {
	w.SetResourceValue(QValue, w.Str(QValue)+s)
	w.Damage(xproto.Rect{})
}

// AllClasses returns the Motif classes for the Wafe command layer.
func AllClasses() []*xt.Class {
	return []*xt.Class{
		XmPrimitiveClass,
		XmLabelClass,
		XmPushButtonClass,
		XmCascadeButtonClass,
		XmRowColumnClass,
		XmTextClass,
		XmCommandClass,
	}
}

// RegisterConverters installs the XmString and FontList converters on
// an app (the Wafe Motif build registers them; the paper's "XmString
// Converter" section).
func RegisterConverters(app *xt.App) {
	app.RegisterConverter(xt.TFontList, func(_ *xt.App, _ *xt.Widget, v string) (any, error) {
		if strings.TrimSpace(v) == "" {
			return (*FontList)(nil), nil
		}
		return ParseFontList(v)
	})
	app.RegisterFormatter(xt.TFontList, func(v any) string {
		if fl, ok := v.(*FontList); ok {
			return fl.Source()
		}
		return ""
	})
	app.RegisterConverter(xt.TXmString, func(_ *xt.App, w *xt.Widget, v string) (any, error) {
		fl := LabelFontList(w)
		if fl == nil {
			fl = &FontList{Entries: []FontListEntry{{Pattern: "fixed"}}}
		}
		return ParseXmString(v, fl)
	})
	app.RegisterFormatter(xt.TXmString, func(v any) string {
		if xs, ok := v.(*XmString); ok {
			return xs.Source()
		}
		return ""
	})
}
