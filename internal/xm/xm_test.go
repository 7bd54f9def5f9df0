package xm

import (
	"strings"
	"testing"

	"wafe/internal/xt"
)

func newApp(t *testing.T) (*xt.App, *xt.Widget) {
	t.Helper()
	app := xt.NewTestApp("mofe")
	RegisterConverters(app)
	top, err := app.CreateWidget("topLevel", xt.ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return app, top
}

func TestParseFontList(t *testing.T) {
	// The paper's Figure 3 fontList.
	fl, err := ParseFontList("*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft")
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Entries) != 2 {
		t.Fatalf("entries = %d", len(fl.Entries))
	}
	if pat, ok := fl.Lookup("bft"); !ok || !strings.Contains(pat, "bold") {
		t.Errorf("bft → %q, %v", pat, ok)
	}
	if fl.DefaultTag() != "ft" {
		t.Errorf("default tag = %q", fl.DefaultTag())
	}
	if _, ok := fl.Lookup("nope"); ok {
		t.Error("unknown tag should fail")
	}
	if _, err := ParseFontList(""); err == nil {
		t.Error("empty fontList must fail")
	}
}

// TestParseXmStringFigure3 parses the paper's compound string example.
func TestParseXmStringFigure3(t *testing.T) {
	fl, _ := ParseFontList("*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft")
	xs, err := ParseXmString(`I'm\bft bold\ft and\rl strange`, fl)
	if err != nil {
		t.Fatal(err)
	}
	want := []Segment{
		{Text: "I'm", FontTag: "ft", Direction: "ltr"},
		{Text: " bold", FontTag: "bft", Direction: "ltr"},
		{Text: " and", FontTag: "ft", Direction: "ltr"},
		{Text: " strange", FontTag: "ft", Direction: "rtl"},
	}
	if len(xs.Segments) != len(want) {
		t.Fatalf("segments = %+v", xs.Segments)
	}
	for i, seg := range xs.Segments {
		if seg != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, seg, want[i])
		}
	}
	// Right-to-left text renders reversed.
	if !strings.HasSuffix(xs.PlainText(), "egnarts ") {
		t.Errorf("plain text = %q", xs.PlainText())
	}
}

func TestParseXmStringUnknownTag(t *testing.T) {
	fl, _ := ParseFontList("fixed=ft")
	if _, err := ParseXmString(`x\nosuchtag y`, fl); err == nil {
		t.Error("unknown tag must fail")
	}
}

func TestXmLabelWidget(t *testing.T) {
	app, top := newApp(t)
	l, err := app.CreateWidget("l", XmLabelClass, top, map[string]string{
		"fontList":    "*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft",
		"labelString": `I'm\bft bold\ft and\rl strange`,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	xs := LabelXmString(l)
	if xs == nil || len(xs.Segments) != 4 {
		t.Fatalf("labelString = %+v", xs)
	}
	// Readable back through gV.
	src, err := l.GetValue("labelString")
	if err != nil || src != `I'm\bft bold\ft and\rl strange` {
		t.Errorf("gV labelString = %q, %v", src, err)
	}
	top.Realize()
	app.Pump()
	texts := l.Display().StringsDrawn(l.Window())
	joined := strings.Join(texts, "|")
	if !strings.Contains(joined, " bold") || !strings.Contains(joined, "egnarts") {
		t.Errorf("drawn = %q", joined)
	}
}

func TestXmPushButtonProtocol(t *testing.T) {
	app, top := newApp(t)
	b, _ := app.CreateWidget("pressMe", XmPushButtonClass, top, nil, true)
	var seq []string
	for _, cb := range []string{"armCallback", "activateCallback", "disarmCallback"} {
		name := cb
		_ = b.AddCallback(name, xt.Callback{Proc: func(*xt.Widget, xt.CallData) { seq = append(seq, name) }})
	}
	top.Realize()
	app.Pump()
	d := b.Display()
	win, _ := d.Lookup(b.Window())
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	app.Pump()
	if strings.Join(seq, ",") != "armCallback,activateCallback,disarmCallback" {
		t.Errorf("sequence = %v", seq)
	}
}

// TestCascadeButtonHighlight: the highlight draws a shadow border on
// the screen and removing it restores the button's pixels; a press
// in between keeps the highlight.
func TestCascadeButtonHighlight(t *testing.T) {
	app, top := newApp(t)
	cb, _ := app.CreateWidget("casc", XmCascadeButtonClass, top, map[string]string{"labelString": "File"}, true)
	top.Realize()
	pixels := func() string {
		app.Pump()
		return string(cb.Display().RenderImage(cb.Window()).Pix)
	}
	plain := pixels()
	CascadeButtonHighlight(cb, true)
	lit := pixels()
	if lit == plain {
		t.Error("highlighting left the button's pixels unchanged")
	}
	d := cb.Display()
	win, _ := d.Lookup(cb.Window())
	d.WarpPointer(win.RootCoords(4, 4))
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	if pixels() != lit {
		t.Error("a click on the highlighted button changed its pixels")
	}
	CascadeButtonHighlight(cb, false)
	if pixels() != plain {
		t.Error("removing the highlight did not restore the button's pixels")
	}
}

func TestRowColumnLayout(t *testing.T) {
	app, top := newApp(t)
	rc, _ := app.CreateWidget("rc", XmRowColumnClass, top, map[string]string{"orientation": "horizontal"}, true)
	a, _ := app.CreateWidget("a", XmLabelClass, rc, nil, true)
	b, _ := app.CreateWidget("b", XmLabelClass, rc, nil, true)
	top.Realize()
	app.Pump()
	if b.Int(xt.QX) <= a.Int(xt.QX) {
		t.Errorf("horizontal rowcolumn: a.x=%d b.x=%d", a.Int(xt.QX), b.Int(xt.QX))
	}
}

func TestXmTextEditing(t *testing.T) {
	app, top := newApp(t)
	txt, _ := app.CreateWidget("t", XmTextClass, top, nil, true)
	var activated string
	_ = txt.AddCallback("activateCallback", xt.Callback{Proc: func(w *xt.Widget, d xt.CallData) {
		activated = d["value"]
	}})
	top.Realize()
	app.Pump()
	d := txt.Display()
	d.SetInputFocus(txt.Window())
	_ = d.TypeString("hello")
	app.Pump()
	if txt.Str(QValue) != "hello" {
		t.Errorf("value = %q", txt.Str(QValue))
	}
	_ = d.TypeString("\r")
	app.Pump()
	if activated != "hello" {
		t.Errorf("activate value = %q", activated)
	}
}

// TestXmCommand: typed and appended text builds the value, and Return
// enters it.
func TestXmCommand(t *testing.T) {
	app, top := newApp(t)
	cmd, _ := app.CreateWidget("c", XmCommandClass, top, nil, true)
	var entered string
	_ = cmd.AddCallback("commandEnteredCallback", xt.Callback{Proc: func(w *xt.Widget, d xt.CallData) {
		entered = d["value"]
	}})
	top.Realize()
	app.Pump()
	d := cmd.Display()
	d.SetInputFocus(cmd.Window())
	CommandAppendValue(cmd, "ls ")
	_ = d.TypeString("-l")
	app.Pump()
	if cmd.Str(QValue) != "ls -l" {
		t.Errorf("value = %q", cmd.Str(QValue))
	}
	_ = d.TypeString("\r")
	app.Pump()
	if entered != "ls -l" {
		t.Errorf("entered = %q", entered)
	}
	hist := cmd.StringList(QHistoryItems)
	if len(hist) != 1 || hist[0] != "ls -l" {
		t.Errorf("history = %v", hist)
	}
	if cmd.Str(QValue) != "" {
		t.Error("value not cleared after Return")
	}
}

func TestHistoryLimit(t *testing.T) {
	app, top := newApp(t)
	cmd, _ := app.CreateWidget("c", XmCommandClass, top, map[string]string{"historyMaxItems": "3"}, true)
	top.Realize()
	app.Pump()
	d := cmd.Display()
	d.SetInputFocus(cmd.Window())
	_ = d.TypeString("a\rb\rc\r\rd\r")
	app.Pump()
	hist := cmd.StringList(QHistoryItems)
	if strings.Join(hist, " ") != "b c d" {
		t.Errorf("history = %v, want the last three entered, without the empty one", hist)
	}
}

func TestXmLabelPreferredSizeTracksSegments(t *testing.T) {
	app, top := newApp(t)
	l, _ := app.CreateWidget("sz", XmLabelClass, top, map[string]string{
		"fontList":    "fixed=ft,9x15=big",
		"labelString": `aa\big bbb`,
	}, true)
	pw, ph := l.PreferredSize()
	// 2 chars in fixed (6px) + 4 chars in 9x15 (9px) + margins (2*2) +
	// shadows (2*2).
	wantW := 2*6 + 4*9 + 4 + 4
	if pw != wantW {
		t.Errorf("preferred width = %d, want %d", pw, wantW)
	}
	// Height follows the tallest font (9x15 → 15) plus margins/shadows.
	if ph != 15+4+4 {
		t.Errorf("preferred height = %d", ph)
	}
}

func TestXmLabelDefaultsToName(t *testing.T) {
	app, top := newApp(t)
	l, _ := app.CreateWidget("unnamed", XmLabelClass, top, nil, true)
	xs := LabelXmString(l)
	if xs == nil || xs.PlainText() != "unnamed" {
		t.Errorf("default labelString = %+v", xs)
	}
}

func TestXmTextBackspaceAndLimits(t *testing.T) {
	app, top := newApp(t)
	txt, _ := app.CreateWidget("bs", XmTextClass, top, nil, true)
	var changes int
	_ = txt.AddCallback("valueChangedCallback", xt.Callback{Proc: func(*xt.Widget, xt.CallData) { changes++ }})
	top.Realize()
	app.Pump()
	d := txt.Display()
	d.SetInputFocus(txt.Window())
	_ = d.TypeString("ab")
	app.Pump()
	_ = d.TypeString("\b")
	app.Pump()
	if txt.Str(QValue) != "a" {
		t.Errorf("value = %q", txt.Str(QValue))
	}
	// Backspace on empty is a no-op.
	_ = d.TypeString("\b\b")
	app.Pump()
	if txt.Str(QValue) != "" {
		t.Errorf("value = %q", txt.Str(QValue))
	}
	if changes < 3 {
		t.Errorf("valueChangedCallback fired %d times", changes)
	}
	// Non-editable text ignores keys.
	_ = txt.SetValues("editable", "false", "value", "locked")
	_ = d.TypeString("x")
	app.Pump()
	if txt.Str(QValue) != "locked" {
		t.Errorf("read-only value = %q", txt.Str(QValue))
	}
}

func TestXmPushButtonActivateNeedsArm(t *testing.T) {
	app, top := newApp(t)
	b, _ := app.CreateWidget("noarm", XmPushButtonClass, top, nil, true)
	fired := false
	_ = b.AddCallback("activateCallback", xt.Callback{Proc: func(*xt.Widget, xt.CallData) { fired = true }})
	top.Realize()
	app.Pump()
	// A release without a preceding press (arm) must not activate.
	d := b.Display()
	win, _ := d.Lookup(b.Window())
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	d.InjectButtonRelease(1)
	app.Pump()
	if fired {
		t.Error("activate without arm")
	}
}

func TestVerticalRowColumn(t *testing.T) {
	app, top := newApp(t)
	rc, _ := app.CreateWidget("vrc", XmRowColumnClass, top, nil, true)
	a, _ := app.CreateWidget("va", XmLabelClass, rc, nil, true)
	b, _ := app.CreateWidget("vb", XmLabelClass, rc, nil, true)
	top.Realize()
	app.Pump()
	if b.Int(xt.QY) <= a.Int(xt.QY) {
		t.Errorf("vertical rowcolumn: a.y=%d b.y=%d", a.Int(xt.QY), b.Int(xt.QY))
	}
	if a.Int(xt.QX) != b.Int(xt.QX) {
		t.Error("columns misaligned")
	}
}

func TestAllClassesCreatable(t *testing.T) {
	app, top := newApp(t)
	for i, c := range AllClasses() {
		name := "m" + string(rune('a'+i))
		if _, err := app.CreateWidget(name, c, top, nil, true); err != nil {
			t.Errorf("create %s: %v", c.Name, err)
		}
	}
	top.Realize()
	app.Pump()
}
