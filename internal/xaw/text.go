package xaw

import (
	"os"
	"strings"
	"unicode/utf8"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// AsciiTextClass is the Athena text widget in its ascii-string flavour:
// an editable buffer exposed through the "string" resource, which the
// paper's prime-factor demo reads with "gV input string" and the mass-
// transfer example writes with "sv text ... string $C".
var AsciiTextClass = &xt.Class{
	Name:  "AsciiText",
	Super: SimpleClass,
	Resources: []xt.Resource{
		{Name: "foreground", Class: "Foreground", Type: xt.TPixel, Default: "XtDefaultForeground"},
		{Name: "font", Class: "Font", Type: xt.TFont, Default: "fixed"},
		{Name: "string", Class: "String", Type: xt.TString, Default: ""},
		{Name: "editType", Class: "EditType", Type: xt.TString, Default: "read"},
		{Name: "type", Class: "Type", Type: xt.TString, Default: "string"},
		{Name: "length", Class: "Length", Type: xt.TInt, Default: "0"},
		{Name: "useStringInPlace", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "insertPosition", Class: "TextPosition", Type: xt.TInt, Default: "0"},
		{Name: "displayCaret", Class: "Output", Type: xt.TBoolean, Default: "True"},
		{Name: "scrollVertical", Class: "Scroll", Type: xt.TString, Default: "never"},
		{Name: "scrollHorizontal", Class: "Scroll", Type: xt.TString, Default: "never"},
		{Name: "autoFill", Class: "AutoFill", Type: xt.TBoolean, Default: "False"},
		{Name: "wrap", Class: "Wrap", Type: xt.TString, Default: "never"},
	},
	DefaultTranslations: `<Key>Return: newline()
<Key>BackSpace: delete-previous-character()
<Key>Delete: delete-previous-character()
<Key>Left: backward-character()
<Key>Right: forward-character()
<KeyPress>: insert-char()
<Btn1Down>: select-start()
<Btn1Motion>: extend-adjust()
<Btn1Up>: select-end(PRIMARY)
<Btn2Down>: insert-selection(PRIMARY)`,
	Actions: map[string]xt.ActionProc{
		"insert-char":               textInsertChar,
		"newline":                   textNewline,
		"delete-previous-character": textDeletePrev,
		"backward-character":        textBackward,
		"forward-character":         textForward,
		"beginning-of-line":         textBOL,
		"end-of-line":               textEOL,
		"kill-to-end-of-line":       textKillEOL,
		"select-start":              textSelectStart,
		"extend-adjust":             textExtendAdjust,
		"select-end":                textSelectEnd,
		"insert-selection":          textInsertSelection,
	},
	PreferredSize: textPreferredSize,
	Redisplay:     textRedisplay,
	SetValues: func(w *xt.Widget, changed map[string]bool) {
		if changed["string"] {
			// Clamp the caret into the new buffer.
			n := len(w.Str(QString))
			if w.Int(QInsertPosition) > n {
				w.SetResourceValue(QInsertPosition, n)
			}
		}
	},
}

func textEditable(w *xt.Widget) bool {
	if strings.EqualFold(w.Str(QType), "file") {
		return false // file sources display read-only here
	}
	return strings.EqualFold(w.Str(QEditType), "edit") || strings.EqualFold(w.Str(QEditType), "append")
}

// textPrivate holds the per-instance text state: the loaded-file cache
// for type=file widgets and the active selection.
type textPrivate struct {
	loadedFrom string
	content    string
	loadErr    string

	selAnchor, selStart, selEnd int
	selecting                   bool

	// Caret geometry cache: the row/column of caretPos in caretBuf.
	// Redisplay consults it so an unchanged buffer needs no O(n) prefix
	// scan, and the editing actions update it incrementally (caret
	// geometry depends only on the text before the caret).
	caretBuf string
	caretPos int
	caretRow int
	caretCol int // column in runes from the line start
	caretOK  bool
}

func textState(w *xt.Widget) *textPrivate {
	st, ok := w.Private.(*textPrivate)
	if !ok {
		st = &textPrivate{}
		w.Private = st
	}
	return st
}

// TextBuffer returns the text the widget displays: the string resource
// itself, or — for type=file — the contents of the named file.
func TextBuffer(w *xt.Widget) string {
	if !strings.EqualFold(w.Str(QType), "file") {
		return w.Str(QString)
	}
	st := textState(w)
	name := w.Str(QString)
	if st.loadedFrom != name {
		st.loadedFrom = name
		st.content = ""
		st.loadErr = ""
		if name != "" {
			data, err := os.ReadFile(name)
			if err != nil {
				st.loadErr = "[cannot read " + name + "]"
			} else {
				st.content = string(data)
			}
		}
	}
	if st.loadErr != "" {
		return st.loadErr
	}
	return st.content
}

func textInsertChar(w *xt.Widget, ev *xproto.Event, _ []string) {
	if !textEditable(w) || ev == nil || ev.Rune == 0 {
		return
	}
	if ev.Rune < 0x20 && ev.Rune != '\t' {
		return
	}
	insertText(w, string(ev.Rune))
}

func insertText(w *xt.Widget, s string) {
	buf := w.Str(QString)
	pos := clamp(w.Int(QInsertPosition), 0, len(buf))
	newBuf := buf[:pos] + s + buf[pos:]
	newPos := pos + len(s)
	st := textState(w)
	if st.caretOK && st.caretPos == pos && st.caretBuf == buf {
		// The text before the caret is the old prefix plus s, so the
		// cached geometry advances by s alone.
		if nl := strings.Count(s, "\n"); nl > 0 {
			st.caretRow += nl
			st.caretCol = utf8.RuneCountInString(s[strings.LastIndexByte(s, '\n')+1:])
		} else {
			st.caretCol += utf8.RuneCountInString(s)
		}
		st.caretBuf, st.caretPos = newBuf, newPos
	} else {
		st.caretOK = false
	}
	w.SetResourceValue(QString, newBuf)
	w.SetResourceValue(QInsertPosition, newPos)
	w.Damage(xproto.Rect{})
}

func textNewline(w *xt.Widget, _ *xproto.Event, _ []string) {
	if !textEditable(w) {
		return
	}
	insertText(w, "\n")
}

func textDeletePrev(w *xt.Widget, _ *xproto.Event, _ []string) {
	if !textEditable(w) {
		return
	}
	buf := w.Str(QString)
	pos := clamp(w.Int(QInsertPosition), 0, len(buf))
	if pos == 0 {
		return
	}
	newBuf := buf[:pos-1] + buf[pos:]
	st := textState(w)
	deleted := buf[pos-1]
	if st.caretOK && st.caretPos == pos && st.caretBuf == buf && deleted != '\n' && deleted < 0x80 {
		st.caretCol--
		st.caretBuf, st.caretPos = newBuf, pos-1
	} else {
		// Deleting a newline or part of a multi-byte rune needs a full
		// rescan; let the next redisplay recompute.
		st.caretOK = false
	}
	w.SetResourceValue(QString, newBuf)
	w.SetResourceValue(QInsertPosition, pos-1)
	w.Damage(xproto.Rect{})
}

func textBackward(w *xt.Widget, _ *xproto.Event, _ []string) {
	if p := w.Int(QInsertPosition); p > 0 {
		w.SetResourceValue(QInsertPosition, p-1)
	}
}

func textForward(w *xt.Widget, _ *xproto.Event, _ []string) {
	if p := w.Int(QInsertPosition); p < len(w.Str(QString)) {
		w.SetResourceValue(QInsertPosition, p+1)
	}
}

func textBOL(w *xt.Widget, _ *xproto.Event, _ []string) {
	buf := w.Str(QString)
	pos := clamp(w.Int(QInsertPosition), 0, len(buf))
	for pos > 0 && buf[pos-1] != '\n' {
		pos--
	}
	w.SetResourceValue(QInsertPosition, pos)
}

func textEOL(w *xt.Widget, _ *xproto.Event, _ []string) {
	buf := w.Str(QString)
	pos := clamp(w.Int(QInsertPosition), 0, len(buf))
	for pos < len(buf) && buf[pos] != '\n' {
		pos++
	}
	w.SetResourceValue(QInsertPosition, pos)
}

func textKillEOL(w *xt.Widget, _ *xproto.Event, _ []string) {
	if !textEditable(w) {
		return
	}
	buf := w.Str(QString)
	pos := clamp(w.Int(QInsertPosition), 0, len(buf))
	end := pos
	for end < len(buf) && buf[end] != '\n' {
		end++
	}
	if end == pos && end < len(buf) {
		end++ // kill the newline itself
	}
	w.SetResourceValue(QString, buf[:pos]+buf[end:])
	w.Damage(xproto.Rect{})
}

// textPosAt maps window coordinates to a buffer offset.
func textPosAt(w *xt.Widget, x, y int) int {
	f := w.FontRes(QFont)
	buf := TextBuffer(w)
	row := (y - 2) / f.Height()
	col := (x - 2 + f.Width/2) / f.Width
	if row < 0 {
		return 0
	}
	pos := 0
	for text, more := buf, true; more; row-- {
		var line string
		line, text, more = strings.Cut(text, "\n")
		if row == 0 {
			return pos + clamp(col, 0, len(line))
		}
		pos += len(line) + 1
	}
	return len(buf)
}

func textSelectStart(w *xt.Widget, ev *xproto.Event, _ []string) {
	st := textState(w)
	p := textPosAt(w, ev.X, ev.Y)
	st.selAnchor, st.selStart, st.selEnd = p, p, p
	st.selecting = true
	w.SetResourceValue(QInsertPosition, p)
	// Clicking a text widget gives it keyboard focus.
	w.Display().SetInputFocus(w.Window())
}

func textExtendAdjust(w *xt.Widget, ev *xproto.Event, _ []string) {
	st := textState(w)
	if !st.selecting {
		return
	}
	p := textPosAt(w, ev.X, ev.Y)
	if p < st.selAnchor {
		st.selStart, st.selEnd = p, st.selAnchor
	} else {
		st.selStart, st.selEnd = st.selAnchor, p
	}
	w.Damage(xproto.Rect{})
}

// textSelectEnd completes the selection and asserts ownership of the
// named selection (PRIMARY by default) through the Xt selection
// mechanism.
func textSelectEnd(w *xt.Widget, ev *xproto.Event, params []string) {
	st := textState(w)
	if !st.selecting {
		return
	}
	st.selecting = false
	if ev != nil {
		textExtendAdjustFinal(w, ev)
	}
	if st.selStart >= st.selEnd {
		return
	}
	sel := "PRIMARY"
	if len(params) > 0 && params[0] != "" {
		sel = params[0]
	}
	widget := w
	w.Display().OwnSelection(sel, w.Window(), func(target string) (string, bool) {
		s := textState(widget)
		buf := TextBuffer(widget)
		if s.selStart >= s.selEnd || s.selEnd > len(buf) {
			return "", false
		}
		return buf[s.selStart:s.selEnd], true
	})
}

func textExtendAdjustFinal(w *xt.Widget, ev *xproto.Event) {
	st := textState(w)
	p := textPosAt(w, ev.X, ev.Y)
	if p < st.selAnchor {
		st.selStart, st.selEnd = p, st.selAnchor
	} else {
		st.selStart, st.selEnd = st.selAnchor, p
	}
}

// textInsertSelection pastes the named selection at the event position.
func textInsertSelection(w *xt.Widget, ev *xproto.Event, params []string) {
	if !textEditable(w) {
		return
	}
	sel := "PRIMARY"
	if len(params) > 0 && params[0] != "" {
		sel = params[0]
	}
	v, ok := w.Display().ConvertSelection(sel, "STRING")
	if !ok {
		return
	}
	if ev != nil {
		w.SetResourceValue(QInsertPosition, textPosAt(w, ev.X, ev.Y))
	}
	insertText(w, v)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// textPreferredSize measures the text's lines in place, as Label
// does: layout asks for it often, so it must not split the text into a
// slice.
func textPreferredSize(w *xt.Widget) (int, int) {
	f := w.FontRes(QFont)
	width, lines := 100, 0
	for text, more := TextBuffer(w), true; more; lines++ {
		var line string
		line, text, more = strings.Cut(text, "\n")
		width = max(width, f.TextWidth(line))
	}
	return width + 4, lines*f.Height() + 4
}

func textRedisplay(w *xt.Widget) {
	d := w.Display()
	win := w.Window()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes(xt.QBackground)
	d.FillRectangle(win, gc, clip.X, clip.Y, clip.W, clip.H)
	gc.Foreground = w.PixelRes(QForeground)
	gc.Font = w.FontRes(QFont)
	y := 2 + gc.Font.Ascent
	right := clip.X + clip.W - 2
	for text, more := TextBuffer(w), true; more; {
		var line string
		line, text, more = strings.Cut(text, "\n")
		if w.ClipIntersects(2, y-gc.Font.Ascent, textWidthTo(gc.Font, line, right), gc.Font.Height()) {
			d.DrawString(win, gc, 2, y, line)
		}
		y += gc.Font.Height()
	}
	// Caret as a one-pixel line at the insert position.
	if w.Bool(QDisplayCaret) && textEditable(w) {
		buf := w.Str(QString)
		pos := clamp(w.Int(QInsertPosition), 0, len(buf))
		row, col := textCaret(w, buf, pos)
		cx := 2 + gc.Font.Width*col
		cy := 2 + row*gc.Font.Height()
		if w.ClipIntersects(cx, cy, 1, gc.Font.Height()) {
			d.DrawLine(win, gc, cx, cy, cx, cy+gc.Font.Height()-1)
		}
	}
}

// textWidthTo returns the width of line in f, counting runes only
// until the width reaches limit, the clip's right edge.
func textWidthTo(f *xproto.Font, line string, limit int) int {
	n := 0
	for range line {
		if f.Width*n >= limit {
			break
		}
		n++
	}
	return f.Width * n
}

// textCaret returns the caret's row and rune column, consulting and
// refreshing the cache in textPrivate. A cache hit is O(1): the buffer
// comparison short-circuits on the string header when the resource
// still holds the same string value.
func textCaret(w *xt.Widget, buf string, pos int) (row, col int) {
	st := textState(w)
	if st.caretOK && st.caretPos == pos && st.caretBuf == buf {
		return st.caretRow, st.caretCol
	}
	row = strings.Count(buf[:pos], "\n")
	colStart := strings.LastIndexByte(buf[:pos], '\n') + 1
	col = utf8.RuneCountInString(buf[colStart:pos])
	st.caretBuf, st.caretPos, st.caretRow, st.caretCol, st.caretOK = buf, pos, row, col, true
	return row, col
}
