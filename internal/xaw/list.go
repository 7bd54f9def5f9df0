package xaw

import (
	"strconv"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// ListClass shows a list of strings in columns; selecting an item runs
// the callback with the Athena XawListReturnStruct, which the Wafe
// layer exposes through the %i (index) and %s (string) percent codes.
var ListClass = &xt.Class{
	Name:  "List",
	Super: SimpleClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "font", Class: "Font", Type: xt.TFont, Default: "fixed"},
		{Name: "list", Class: "List", Type: xt.TStringList, Default: ""},
		{Name: "numberStrings", Class: "NumberStrings", Type: xt.TInt, Default: "0"},
		{Name: "defaultColumns", Class: "Columns", Type: xt.TInt, Default: "2"},
		{Name: "forceColumns", Class: "Columns", Type: xt.TBoolean, Default: "False"},
		{Name: "internalWidth", Class: "Width", Type: xt.TDimension, Default: "2"},
		{Name: "internalHeight", Class: "Height", Type: xt.TDimension, Default: "2"},
		{Name: "columnSpacing", Class: "Spacing", Type: xt.TDimension, Default: "6"},
		{Name: "rowSpacing", Class: "Spacing", Type: xt.TDimension, Default: "2"},
		{Name: "verticalList", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "pasteBuffer", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "callback", Class: "Callback", Type: xt.TCallback, Default: ""},
	},
	DefaultTranslations: `<Btn1Down>: Set()
<Btn1Up>: Notify()`,
	Actions: map[string]xt.ActionProc{
		"Set":    listActionSet,
		"Unset":  listActionUnset,
		"Notify": listActionNotify,
	},
	PreferredSize: listPreferredSize,
	Redisplay:     listRedisplay,
	SetValues: func(w *xt.Widget, changed map[string]bool) {
		if changed["list"] {
			listState(w).highlight = -1
			if !w.Explicit(xt.QWidth) {
				pw, ph := listPreferredSize(w)
				w.RequestResize(pw, ph)
			}
		}
	},
}

type listPrivate struct {
	highlight int
	// cellW is the width of the widest of cellItems in cellFont: the
	// cell width measured for the items and font the List had then.
	cellItems []string
	cellFont  *xproto.Font
	cellW     int
}

func listState(w *xt.Widget) *listPrivate {
	st, ok := w.Private.(*listPrivate)
	if !ok {
		st = &listPrivate{highlight: -1}
		w.Private = st
	}
	return st
}

// ListReturn is XawListReturnStruct.
type ListReturn struct {
	String string
	Index  int
}

func listItems(w *xt.Widget) []string {
	items := w.StringList(QList)
	if n := w.Int(QNumberStrings); n > 0 && n < len(items) {
		items = items[:n]
	}
	return items
}

// listColumns returns the effective column count.
func listColumns(w *xt.Widget) int {
	cols := w.Int(QDefaultColumns)
	if w.Bool(QVerticalList) {
		cols = 1
	}
	if cols < 1 {
		cols = 1
	}
	return cols
}

// listCellSize computes a uniform cell size from the longest item. The
// width is measured again only when the items or the font differ from
// the ones last measured: a new list value, a new numberStrings or a
// new font.
func listCellSize(w *xt.Widget) (int, int) {
	f := w.FontRes(QFont)
	items := listItems(w)
	st := listState(w)
	if st.cellW == 0 || st.cellFont != f || !sameSlice(st.cellItems, items) {
		maxW := 1
		for _, it := range items {
			if tw := f.TextWidth(it); tw > maxW {
				maxW = tw
			}
		}
		st.cellItems, st.cellFont, st.cellW = items, f, maxW
	}
	return st.cellW, f.Height()
}

// sameSlice reports whether a and b are the same elements of the same
// array.
func sameSlice(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func listPreferredSize(w *xt.Widget) (int, int) {
	items := listItems(w)
	cols := listColumns(w)
	rows := (len(items) + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	cw, ch := listCellSize(w)
	width := cols*cw + (cols-1)*w.Int(QColumnSpacing) + 2*w.Int(QInternalWidth)
	height := rows*ch + (rows-1)*w.Int(QRowSpacing) + 2*w.Int(QInternalHeight)
	return width, height
}

// listIndexAt maps window coordinates to an item index (-1 outside).
func listIndexAt(w *xt.Widget, x, y int) int {
	items := listItems(w)
	cols := listColumns(w)
	cw, ch := listCellSize(w)
	col := (x - w.Int(QInternalWidth)) / (cw + w.Int(QColumnSpacing))
	row := (y - w.Int(QInternalHeight)) / (ch + w.Int(QRowSpacing))
	if col < 0 || row < 0 || col >= cols {
		return -1
	}
	idx := row*cols + col
	if idx >= len(items) {
		return -1
	}
	return idx
}

// listCellRect returns the cell rectangle of item i, one pixel wider on
// each side to cover the highlight bar.
func listCellRect(w *xt.Widget, i int) xproto.Rect {
	cols := listColumns(w)
	cw, ch := listCellSize(w)
	col := i % cols
	row := i / cols
	x := w.Int(QInternalWidth) + col*(cw+w.Int(QColumnSpacing))
	y := w.Int(QInternalHeight) + row*(ch+w.Int(QRowSpacing))
	return xproto.Rect{X: x - 1, Y: y, W: cw + 2, H: ch}
}

// listSetHighlight moves the highlight and damages only the two cells
// that changed instead of the whole list.
func listSetHighlight(w *xt.Widget, idx int) {
	st := listState(w)
	old := st.highlight
	if idx == old {
		return
	}
	st.highlight = idx
	n := len(listItems(w))
	if old >= 0 && old < n {
		w.Damage(listCellRect(w, old))
	}
	if idx >= 0 && idx < n {
		w.Damage(listCellRect(w, idx))
	}
}

func listActionSet(w *xt.Widget, ev *xproto.Event, _ []string) {
	listSetHighlight(w, listIndexAt(w, ev.X, ev.Y))
}

func listActionUnset(w *xt.Widget, _ *xproto.Event, _ []string) {
	listSetHighlight(w, -1)
}

func listActionNotify(w *xt.Widget, ev *xproto.Event, _ []string) {
	idx := listState(w).highlight
	items := listItems(w)
	if idx < 0 || idx >= len(items) {
		return
	}
	w.CallCallbacks("callback", xt.CallData{
		"i": strconv.Itoa(idx),
		"s": items[idx],
	})
}

// ListHighlight implements XawListHighlight.
func ListHighlight(w *xt.Widget, index int) {
	listSetHighlight(w, index)
}

// ListUnhighlight implements XawListUnhighlight.
func ListUnhighlight(w *xt.Widget) {
	listSetHighlight(w, -1)
}

// ListCurrent implements XawListShowCurrent.
func ListCurrent(w *xt.Widget) ListReturn {
	idx := listState(w).highlight
	items := listItems(w)
	if idx < 0 || idx >= len(items) {
		return ListReturn{Index: -1}
	}
	return ListReturn{String: items[idx], Index: idx}
}

// ListChange implements XawListChange: replace the items.
func ListChange(w *xt.Widget, items []string, resize bool) {
	w.SetResourceValue(QList, append([]string(nil), items...))
	listState(w).highlight = -1
	if resize && !w.Explicit(xt.QWidth) {
		pw, ph := listPreferredSize(w)
		w.RequestResize(pw, ph)
	}
	w.Damage(xproto.Rect{})
}

func listRedisplay(w *xt.Widget) {
	d := w.Display()
	win := w.Window()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(win, gc, clip.X, clip.Y, clip.W, clip.H)
	gc.Foreground = w.PixelRes(QForeground)
	gc.Font = w.FontRes(QFont)
	items := listItems(w)
	cols := listColumns(w)
	cw, ch := listCellSize(w)
	hl := listState(w).highlight
	iw, ih := w.Int(QInternalWidth), w.Int(QInternalHeight)
	colStep, rowStep := cw+w.Int(QColumnSpacing), ch+w.Int(QRowSpacing)
	// Visit only the rows the clip touches, as Xaw's List does: row r
	// spans ih+r*rowStep to ih+r*rowStep+ch. The bounds may take in one
	// row too many, which the cell check below skips.
	first, end := 0, len(items)
	if rowStep > 0 {
		first = max(0, (clip.Y-ih-ch)/rowStep) * cols
		end = min(end, ((clip.Y+clip.H-1-ih)/rowStep+1)*cols)
	}
	for i := first; i < end; i++ {
		x := iw + i%cols*colStep
		y := ih + i/cols*rowStep
		if !w.ClipIntersects(x-1, y, cw+2, ch) {
			continue
		}
		if i == hl {
			d.FillRectangle(win, gc, x-1, y, cw+2, ch)
			inv := d.NewGC()
			inv.Foreground = w.PixelRes(xt.QBackground)
			inv.Font = gc.Font
			d.DrawString(win, inv, x, y+gc.Font.Ascent, items[i])
			continue
		}
		d.DrawString(win, gc, x, y+gc.Font.Ascent, items[i])
	}
}
