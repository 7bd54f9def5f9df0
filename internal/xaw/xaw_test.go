package xaw

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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

func create(t *testing.T, app *xt.App, name string, class *xt.Class, parent *xt.Widget, args map[string]string) *xt.Widget {
	t.Helper()
	w, err := app.CreateWidget(name, class, parent, args, true)
	if err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
	return w
}

func press(app *xt.App, w *xt.Widget) {
	d := w.Display()
	win, _ := d.Lookup(w.Window())
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	app.Pump()
}

// TestLabelResourceCount asserts the paper's measured number: 42
// resources for the Label class under Xaw3d.
func TestLabelResourceCount(t *testing.T) {
	app, top := newApp(t)
	w := create(t, app, "l", LabelClass, top, nil)
	names := w.ResourceNames()
	if len(names) != 42 {
		t.Errorf("Label has %d resources, paper reports 42:\n%s", len(names), strings.Join(names, " "))
	}
	prefix := strings.Join(names[:12], " ")
	want := "destroyCallback ancestorSensitive x y width height borderWidth sensitive screen depth colormap background"
	if prefix != want {
		t.Errorf("prefix = %q\nwant     %q", prefix, want)
	}
}

func TestLabelDefaultsToName(t *testing.T) {
	app, top := newApp(t)
	w := create(t, app, "hello", LabelClass, top, nil)
	if w.Str("label") != "hello" {
		t.Errorf("label = %q", w.Str("label"))
	}
	w2 := create(t, app, "l2", LabelClass, top, map[string]string{"label": "explicit"})
	if w2.Str("label") != "explicit" {
		t.Errorf("label = %q", w2.Str("label"))
	}
}

func TestLabelPreferredSizeTracksFont(t *testing.T) {
	app, top := newApp(t)
	w := create(t, app, "l", LabelClass, top, map[string]string{"label": "1234567890"})
	pw, ph := w.PreferredSize()
	// fixed font: 6px/char + 2*4 internal width.
	if pw != 6*10+8 {
		t.Errorf("preferred width = %d", pw)
	}
	if ph != 13+4 {
		t.Errorf("preferred height = %d", ph)
	}
}

// TestMultiLineLabelAllocs: a multi-line label is measured and
// repainted without splitting its text into a slice.
func TestMultiLineLabelAllocs(t *testing.T) {
	app, top := newApp(t)
	l := create(t, app, "ml", LabelClass, top, map[string]string{"label": "one\ntwo, the longest\n\nfour"})
	if w, h := labelPreferredSize(l); w != 2*4+6*len("two, the longest") || h != 4*13+2*2 {
		t.Fatalf("preferred size %dx%d, want %dx%d", w, h, 2*4+6*len("two, the longest"), 4*13+2*2)
	}
	if n := testing.AllocsPerRun(100, func() { labelPreferredSize(l) }); n != 0 {
		t.Errorf("labelPreferredSize allocates %.1f times per call, want 0", n)
	}
	top.Realize()
	app.Pump()
	d, win := l.Display(), l.Window()
	if got := strings.Join(d.StringsDrawn(win), "|"); got != "one|two, the longest||four" {
		t.Fatalf("drawn lines %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { d.InjectExpose(win); app.Pump() }); n != 0 {
		t.Errorf("repainting a multi-line label allocates %.1f times, want 0", n)
	}
}

func TestMultiLineTextAllocs(t *testing.T) {
	app, top := newApp(t)
	const text = "one\ntwo, the longest line\n\nfour"
	txt := create(t, app, "mt", AsciiTextClass, top, map[string]string{"string": text})
	if w, h := textPreferredSize(txt); w != 6*len("two, the longest line")+4 || h != 4*13+4 {
		t.Fatalf("preferred size %dx%d, want %dx%d", w, h, 6*len("two, the longest line")+4, 4*13+4)
	}
	if n := testing.AllocsPerRun(100, func() { textPreferredSize(txt) }); n != 0 {
		t.Errorf("textPreferredSize allocates %.1f times per call, want 0", n)
	}
	top.Realize()
	app.Pump()
	d, win := txt.Display(), txt.Window()
	if got := strings.Join(d.StringsDrawn(win), "|"); got != "one|two, the longest line||four" {
		t.Fatalf("drawn lines %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { d.InjectExpose(win); app.Pump() }); n != 0 {
		t.Errorf("repainting a multi-line text allocates %.1f times, want 0", n)
	}
	// Positions map through the same line walk: the start of "four",
	// a click past the end of "one", and a row below the last line.
	for _, c := range []struct{ x, y, want int }{
		{2, 2 + 3*13, len(text) - len("four")},
		{200, 2, len("one")},
		{2, 2 + 9*13, len(text)},
	} {
		if got := textPosAt(txt, c.x, c.y); got != c.want {
			t.Errorf("textPosAt(%d, %d) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestLabelColorsFromPaperExample(t *testing.T) {
	// label label1 topLevel background red foreground blue
	app, top := newApp(t)
	w := create(t, app, "label1", LabelClass, top, map[string]string{
		"background": "red", "foreground": "blue",
	})
	if w.PixelRes("background") != (xproto.Pixel{R: 255}) {
		t.Errorf("background = %v", w.PixelRes("background"))
	}
	if w.PixelRes("foreground") != (xproto.Pixel{B: 255}) {
		t.Errorf("foreground = %v", w.PixelRes("foreground"))
	}
	// setValues label1 background tomato label "Hi Man"
	if err := w.SetValues("background", "tomato", "label", "Hi Man"); err != nil {
		t.Fatal(err)
	}
	if w.PixelRes("background") != (xproto.Pixel{R: 255, G: 99, B: 71}) {
		t.Errorf("tomato = %v", w.PixelRes("background"))
	}
	if got, _ := w.GetValue("label"); got != "Hi Man" {
		t.Errorf("gV label = %q", got)
	}
}

func TestCommandPressFiresCallback(t *testing.T) {
	app, top := newApp(t)
	b := create(t, app, "quit", CommandClass, top, nil)
	fired := 0
	_ = b.AddCallback("callback", xt.Callback{Source: "quit", Proc: func(*xt.Widget, xt.CallData) { fired++ }})
	top.Realize()
	app.Pump()
	press(app, b)
	if fired != 1 {
		t.Errorf("callback fired %d times", fired)
	}
	// Press without release inside: set() then unset via leave+reset.
	if IsCommandSet(b) {
		t.Error("button still set after release")
	}
}

func TestCommandHighlightOnEnter(t *testing.T) {
	app, top := newApp(t)
	b := create(t, app, "b", CommandClass, top, nil)
	top.Realize()
	app.Pump()
	d := b.Display()
	win, _ := d.Lookup(b.Window())
	x, y := win.RootCoords(1, 1)
	d.WarpPointer(900, 900)
	app.Pump()
	d.WarpPointer(x, y)
	app.Pump()
	// Highlight drew an extra rectangle; just assert no errors and the
	// state toggles on leave.
	d.WarpPointer(900, 900)
	app.Pump()
	if errs := app.Errors(); len(errs) > 0 {
		t.Errorf("errors: %v", errs)
	}
}

func TestToggleState(t *testing.T) {
	app, top := newApp(t)
	tg := create(t, app, "tog", ToggleClass, top, nil)
	top.Realize()
	app.Pump()
	if tg.Bool("state") {
		t.Fatal("initial state true")
	}
	press(app, tg)
	if !tg.Bool("state") {
		t.Error("state not set after click")
	}
	press(app, tg)
	if tg.Bool("state") {
		t.Error("state not cleared after second click")
	}
}

func TestRadioGroup(t *testing.T) {
	app, top := newApp(t)
	box := create(t, app, "box", BoxClass, top, nil)
	a := create(t, app, "a", ToggleClass, box, nil)
	b := create(t, app, "b", ToggleClass, box, map[string]string{"radioGroup": "a"})
	_ = a.SetValues("radioGroup", "a")
	top.Realize()
	app.Pump()
	press(app, a)
	if !a.Bool("state") {
		t.Fatal("a not set")
	}
	press(app, b)
	if !b.Bool("state") || a.Bool("state") {
		t.Errorf("radio semantics: a=%v b=%v", a.Bool("state"), b.Bool("state"))
	}
}

// TestFormLayoutPaperExample reproduces the Perl demo's widget tree:
// input / result below / quit below / info right of quit.
func TestFormLayoutPaperExample(t *testing.T) {
	app, top := newApp(t)
	form := create(t, app, "top", FormClass, top, nil)
	input := create(t, app, "input", AsciiTextClass, form, map[string]string{"editType": "edit", "width": "200"})
	result := create(t, app, "result", LabelClass, form, map[string]string{"label": " ", "width": "200", "fromVert": "input"})
	quit := create(t, app, "quit", CommandClass, form, map[string]string{"fromVert": "result"})
	info := create(t, app, "info", LabelClass, form, map[string]string{
		"fromVert": "result", "fromHoriz": "quit", "label": " ", "borderWidth": "0", "width": "150"})
	top.Realize()
	app.Pump()
	if result.Int("y") <= input.Int("y") {
		t.Errorf("result not below input: %d vs %d", result.Int("y"), input.Int("y"))
	}
	if quit.Int("y") <= result.Int("y") {
		t.Errorf("quit not below result")
	}
	if info.Int("x") <= quit.Int("x") {
		t.Errorf("info not right of quit: %d vs %d", info.Int("x"), quit.Int("x"))
	}
	if info.Int("y") != quit.Int("y") {
		t.Errorf("info and quit rows differ: %d vs %d", info.Int("y"), quit.Int("y"))
	}
	// Explicit width honoured.
	if input.Int("width") != 200 {
		t.Errorf("input width = %d", input.Int("width"))
	}
}

func TestFormConstraintCycleIsSafe(t *testing.T) {
	app, top := newApp(t)
	form := create(t, app, "f", FormClass, top, nil)
	a := create(t, app, "a", LabelClass, form, nil)
	b := create(t, app, "b", LabelClass, form, map[string]string{"fromVert": "a"})
	_ = a.SetValues("fromVert", "b") // cycle
	top.Realize()
	app.Pump() // must not hang or panic
	_ = b
}

// TestFormConfiguresChildrenInOrder moves a column of children by
// changing the form's default distance and checks that the re-layout
// configures them in managed-child order.
func TestFormConfiguresChildrenInOrder(t *testing.T) {
	var order []string
	recording := &xt.Class{
		Name:   "RecordingLabel",
		Super:  LabelClass,
		Resize: func(w *xt.Widget) { order = append(order, w.Name) },
	}
	app, top := newApp(t)
	form := create(t, app, "f", FormClass, top, nil)
	var kids []*xt.Widget
	for i := 0; i < 12; i++ {
		args := map[string]string{}
		if i > 0 {
			args["fromVert"] = kids[i-1].Name
		}
		kids = append(kids, create(t, app, fmt.Sprintf("c%02d", i), recording, form, args))
	}
	top.Realize()
	app.Pump()
	var want []string
	for _, c := range kids {
		want = append(want, c.Name)
	}
	for _, dist := range []int{20, 8, 30} {
		form.SetResourceValue("defaultDistance", dist)
		order = nil
		formLayout(form)
		if got := strings.Join(order, " "); got != strings.Join(want, " ") {
			t.Fatalf("defaultDistance %d configured %s, want %s", dist, got, strings.Join(want, " "))
		}
	}
}

func TestBoxOrientation(t *testing.T) {
	app, top := newApp(t)
	box := create(t, app, "box", BoxClass, top, map[string]string{"orientation": "horizontal"})
	a := create(t, app, "a", LabelClass, box, nil)
	b := create(t, app, "b", LabelClass, box, nil)
	top.Realize()
	app.Pump()
	if b.Int("x") <= a.Int("x") {
		t.Errorf("horizontal box: b.x=%d a.x=%d", b.Int("x"), a.Int("x"))
	}
	if a.Int("y") != b.Int("y") {
		t.Errorf("horizontal box rows differ")
	}
}

func TestPanedStacksChildren(t *testing.T) {
	app, top := newApp(t)
	paned := create(t, app, "p", PanedClass, top, nil)
	a := create(t, app, "pa", LabelClass, paned, nil)
	b := create(t, app, "pb", LabelClass, paned, nil)
	c := create(t, app, "pc", LabelClass, paned, nil)
	top.Realize()
	app.Pump()
	if !(a.Int("y") < b.Int("y") && b.Int("y") < c.Int("y")) {
		t.Errorf("paned order: %d %d %d", a.Int("y"), b.Int("y"), c.Int("y"))
	}
}

func TestPanedGripsResize(t *testing.T) {
	app, top := newApp(t)
	paned := create(t, app, "gp", PanedClass, top, nil)
	a := create(t, app, "ga", LabelClass, paned, map[string]string{"label": "upper pane"})
	b := create(t, app, "gb", LabelClass, paned, map[string]string{"label": "lower pane"})
	top.Realize()
	app.Pump()
	grip := app.WidgetByName("gaGrip")
	if grip == nil {
		t.Fatal("grip not created between panes")
	}
	if app.WidgetByName("gbGrip") != nil {
		t.Error("grip created after the last pane")
	}
	// Drag: press on the grip, move down 30px, release → pane a grows.
	d := grip.Display()
	win, _ := d.Lookup(grip.Window())
	gx, gy := win.RootCoords(2, 2)
	heightBefore := a.Int("height")
	d.WarpPointer(gx, gy)
	d.InjectButtonPress(1)
	app.Pump()
	d.WarpPointer(gx, gy+30)
	d.InjectButtonRelease(1)
	app.Pump()
	if a.Int("height") <= heightBefore {
		t.Errorf("pane height %d → %d, want growth", heightBefore, a.Int("height"))
	}
	if b.Int("y") <= a.Int("height") {
		t.Errorf("lower pane not pushed down: b.y=%d", b.Int("y"))
	}
	// showGrip false suppresses the grip.
	paned2 := create(t, app, "ng", PanedClass, top, nil)
	create(t, app, "na", LabelClass, paned2, map[string]string{"showGrip": "false"})
	create(t, app, "nb", LabelClass, paned2, nil)
	top.Realize()
	app.Pump()
	if app.WidgetByName("naGrip") != nil {
		t.Error("grip created despite showGrip false")
	}
}

// TestPanedGripsFollowPanes: as in Xaw's Paned, a grip is managed only
// while its pane is managed and is not the last pane, so no grip is
// left managed outside a Paned that shrank when its pane went.
func TestPanedGripsFollowPanes(t *testing.T) {
	app, top := newApp(t)
	paned := create(t, app, "fp", PanedClass, top, nil)
	a := create(t, app, "fa", LabelClass, paned, nil)
	b := create(t, app, "fb", LabelClass, paned, map[string]string{"width": "150"})
	c := create(t, app, "fc", LabelClass, paned, nil)
	top.Realize()
	app.Pump()
	managed := func() string {
		var out []string
		for _, name := range []string{"faGrip", "fbGrip", "fcGrip"} {
			if g := app.WidgetByName(name); g != nil && g.IsManaged() {
				out = append(out, name)
			}
		}
		return strings.Join(out, " ")
	}
	for _, step := range []struct {
		what string
		do   func()
		want string
	}{
		{"realize", func() {}, "faGrip fbGrip"},
		{"unmanage the middle pane", b.Unmanage, "faGrip"},
		{"manage it again", b.Manage, "faGrip fbGrip"},
		{"unmanage the last pane", c.Unmanage, "faGrip"},
		{"manage it again", c.Manage, "faGrip fbGrip"},
		{"unmanage the first pane", a.Unmanage, "fbGrip"},
	} {
		step.do()
		app.Pump()
		if got := managed(); got != step.want {
			t.Errorf("%s: managed grips %q, want %q", step.what, got, step.want)
		}
	}
	// A grip that is managed lies inside its Paned.
	for _, name := range []string{"faGrip", "fbGrip"} {
		g := app.WidgetByName(name)
		if g.IsManaged() && g.Int("x")+g.Int("width") > paned.Int("width") {
			t.Errorf("%s at x=%d width %d overhangs the %d-pixel Paned", name, g.Int("x"), g.Int("width"), paned.Int("width"))
		}
	}
}

func TestListSelectionCallback(t *testing.T) {
	app, top := newApp(t)
	lst := create(t, app, "chooseLst", ListClass, top, map[string]string{
		"list":         "alpha\nbeta\ngamma\ndelta",
		"verticalList": "true",
	})
	var gotIdx, gotStr string
	_ = lst.AddCallback("callback", xt.Callback{Proc: func(w *xt.Widget, d xt.CallData) {
		gotIdx, gotStr = d["i"], d["s"]
	}})
	top.Realize()
	app.Pump()
	// Click the third row.
	d := lst.Display()
	win, _ := d.Lookup(lst.Window())
	_, ch := listCellSize(lst)
	x, y := win.RootCoords(3, lst.Int("internalHeight")+2*(ch+lst.Int("rowSpacing"))+1)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	app.Pump()
	if gotIdx != "2" || gotStr != "gamma" {
		t.Errorf("callback data = i=%q s=%q", gotIdx, gotStr)
	}
	if cur := ListCurrent(lst); cur.Index != 2 || cur.String != "gamma" {
		t.Errorf("ListCurrent = %+v", cur)
	}
	ListUnhighlight(lst)
	if cur := ListCurrent(lst); cur.Index != -1 {
		t.Errorf("after unhighlight: %+v", cur)
	}
}

func TestListChange(t *testing.T) {
	app, top := newApp(t)
	lst := create(t, app, "l", ListClass, top, map[string]string{"list": "a\nb"})
	top.Realize()
	ListChange(lst, []string{"x", "y", "z"}, true)
	if got := lst.StringList("list"); len(got) != 3 || got[2] != "z" {
		t.Errorf("list = %v", got)
	}
}

// TestListChangeSameSizeStopsAtList: a listChange that keeps the
// List's size lays out nothing, as XtMakeGeometryRequest answers
// XtGeometryYes to a request for the current geometry without asking
// the parent; one that changes the size lays the parent Form out once.
func TestListChangeSameSizeStopsAtList(t *testing.T) {
	layouts := 0
	countingForm := &xt.Class{
		Name:      "CountingForm",
		Super:     FormClass,
		Composite: true,
		ChangeManaged: func(w *xt.Widget) {
			layouts++
			formLayout(w)
		},
	}
	app, top := newApp(t)
	form := create(t, app, "f", countingForm, top, nil)
	lst := create(t, app, "l", ListClass, form, map[string]string{"list": "aa\nbb", "defaultColumns": "1"})
	create(t, app, "below", LabelClass, form, map[string]string{"fromVert": "l"})
	top.Realize()
	app.Pump()
	layouts = 0
	ListChange(lst, []string{"cc", "dd"}, true)
	if layouts != 0 {
		t.Errorf("same-size listChange ran %d parent layouts, want 0", layouts)
	}
	w, h := lst.Int("width"), lst.Int("height")
	layouts = 0
	ListChange(lst, []string{"eeee", "ffff", "gg"}, true)
	if lst.Int("width") == w && lst.Int("height") == h {
		t.Fatalf("longer items kept the List at %dx%d", w, h)
	}
	if layouts != 1 {
		t.Errorf("size-changing listChange ran %d parent layouts, want 1", layouts)
	}
}

func TestAsciiTextTyping(t *testing.T) {
	app, top := newApp(t)
	txt := create(t, app, "input", AsciiTextClass, top, map[string]string{"editType": "edit", "width": "200"})
	top.Realize()
	app.Pump()
	d := txt.Display()
	d.SetInputFocus(txt.Window())
	if err := d.TypeString("360"); err != nil {
		t.Fatal(err)
	}
	app.Pump()
	if txt.Str("string") != "360" {
		t.Errorf("buffer = %q", txt.Str("string"))
	}
	// BackSpace deletes.
	code, _ := d.Keymap().KeycodeFor("BackSpace")
	d.InjectKeycode(code, true)
	d.InjectKeycode(code, false)
	app.Pump()
	if txt.Str("string") != "36" {
		t.Errorf("after backspace = %q", txt.Str("string"))
	}
	// Read-only widget ignores keys.
	ro := create(t, app, "ro", AsciiTextClass, top, nil)
	_ = ro
	roW := create(t, app, "ro2", AsciiTextClass, top, map[string]string{"string": "fixed"})
	d.SetInputFocus(roW.Window())
	top.Realize()
	app.Pump()
	_ = d.TypeString("x")
	app.Pump()
	if roW.Str("string") != "fixed" {
		t.Errorf("read-only buffer changed: %q", roW.Str("string"))
	}
}

func TestAsciiTextFileType(t *testing.T) {
	app, top := newApp(t)
	dir := t.TempDir()
	file := dir + "/content.txt"
	if err := os.WriteFile(file, []byte("line one\nline two"), 0o644); err != nil {
		t.Fatal(err)
	}
	txt := create(t, app, "ft", AsciiTextClass, top, map[string]string{"type": "file", "string": file})
	if got := TextBuffer(txt); got != "line one\nline two" {
		t.Errorf("file buffer = %q", got)
	}
	// The string resource still reads back as the file name.
	if got, _ := txt.GetValue("string"); got != file {
		t.Errorf("string resource = %q", got)
	}
	top.Realize()
	app.Pump()
	drawn := strings.Join(txt.Display().StringsDrawn(txt.Window()), "|")
	if !strings.Contains(drawn, "line two") {
		t.Errorf("file content not drawn: %q", drawn)
	}
	// File widgets are read-only.
	d := txt.Display()
	d.SetInputFocus(txt.Window())
	_ = d.TypeString("x")
	app.Pump()
	if TextBuffer(txt) != "line one\nline two" {
		t.Error("file buffer edited")
	}
	// Missing files render a diagnostic instead of crashing.
	missing := create(t, app, "mf", AsciiTextClass, top, map[string]string{"type": "file", "string": dir + "/nope"})
	if got := TextBuffer(missing); !strings.Contains(got, "cannot read") {
		t.Errorf("missing file buffer = %q", got)
	}
}

// TestTextSelectionOwnsPrimary: dragging over text selects it and owns
// the PRIMARY selection; Btn2 pastes it elsewhere.
func TestTextSelectionOwnsPrimary(t *testing.T) {
	app, top := newApp(t)
	box := create(t, app, "selbox", BoxClass, top, nil)
	src := create(t, app, "selsrc", AsciiTextClass, box, map[string]string{
		"editType": "edit", "string": "hello world", "width": "200"})
	dst := create(t, app, "seldst", AsciiTextClass, box, map[string]string{
		"editType": "edit", "width": "200"})
	top.Realize()
	app.Pump()
	d := src.Display()
	win, _ := d.Lookup(src.Window())
	f := src.FontRes("font")
	// Drag from character 0 to character 5 ("hello").
	x0, y0 := win.RootCoords(2, 2+f.Height()/2)
	d.WarpPointer(x0, y0)
	d.InjectButtonPress(1)
	app.Pump()
	d.WarpPointer(x0+5*f.Width, y0)
	app.Pump()
	d.InjectButtonRelease(1)
	app.Pump()
	s, e, text := TextSelection(src)
	if text != "hello" {
		t.Fatalf("selection = [%d,%d) %q", s, e, text)
	}
	if d.SelectionOwner("PRIMARY") != src.Window() {
		t.Fatal("PRIMARY not owned")
	}
	if v, ok := d.ConvertSelection("PRIMARY", "STRING"); !ok || v != "hello" {
		t.Fatalf("PRIMARY value = %q/%v", v, ok)
	}
	// Paste into dst with Btn2.
	dwin, _ := d.Lookup(dst.Window())
	px, py := dwin.RootCoords(2, 2)
	d.WarpPointer(px, py)
	d.InjectButtonPress(2)
	d.InjectButtonRelease(2)
	app.Pump()
	if dst.Str("string") != "hello" {
		t.Errorf("paste result = %q", dst.Str("string"))
	}
}

// TestScrollbarDragWithImplicitGrab: Btn2Motion drags move the thumb
// continuously even when the pointer leaves the bar.
func TestScrollbarDragWithImplicitGrab(t *testing.T) {
	app, top := newApp(t)
	sb := create(t, app, "dragbar", ScrollbarClass, top, map[string]string{"length": "100"})
	var fractions []string
	_ = sb.AddCallback("jumpProc", xt.Callback{Proc: func(_ *xt.Widget, d xt.CallData) {
		fractions = append(fractions, d["f"])
	}})
	top.Realize()
	app.Pump()
	d := sb.Display()
	win, _ := d.Lookup(sb.Window())
	x, y := win.RootCoords(5, 10)
	d.WarpPointer(x, y)
	d.InjectButtonPress(2)
	app.Pump()
	d.WarpPointer(x, y+40) // drag down, pointer may exit the 14px-wide bar
	app.Pump()
	d.WarpPointer(x+30, y+70) // way outside; implicit grab keeps delivery
	app.Pump()
	d.InjectButtonRelease(2)
	app.Pump()
	if len(fractions) < 3 {
		t.Fatalf("jumpProc calls = %v", fractions)
	}
	last := fractions[len(fractions)-1]
	if last == fractions[0] {
		t.Errorf("thumb did not move: %v", fractions)
	}
}

func TestAsciiTextSetStringClampsCaret(t *testing.T) {
	app, top := newApp(t)
	txt := create(t, app, "t", AsciiTextClass, top, map[string]string{"editType": "edit", "string": "hello"})
	txt.SetResourceValue("insertPosition", 5)
	if err := txt.SetValues("string", "hi"); err != nil {
		t.Fatal(err)
	}
	if txt.Int("insertPosition") > 2 {
		t.Errorf("caret not clamped: %d", txt.Int("insertPosition"))
	}
	_ = top
}

// TestMenuButtonEnterWindowOverride reproduces the paper's action
// example: override the MenuButton translations so the menu pops up on
// EnterWindow.
func TestMenuButtonEnterWindowOverride(t *testing.T) {
	app, top := newApp(t)
	mb := create(t, app, "mb", MenuButtonClass, top, map[string]string{"menuName": "mymenu"})
	menu, err := app.CreateWidget("mymenu", SimpleMenuClass, top, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	create(t, app, "e1", SmeBSBClass, menu, map[string]string{"label": "first"})
	top.Realize()
	app.Pump()
	// action mb override "<EnterWindow>: PopupMenu()"
	nt, err := xt.ParseTranslations("<EnterWindow>: PopupMenu()")
	if err != nil {
		t.Fatal(err)
	}
	merged := mustTranslations(mb).Merge(nt, xt.MergeOverride)
	mb.SetResourceValue("translations", merged)
	mb.UpdateInputMask()
	d := mb.Display()
	d.WarpPointer(900, 900)
	app.Pump()
	win, _ := d.Lookup(mb.Window())
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	app.Pump()
	if !menu.IsPoppedUp() {
		t.Error("menu did not pop up on EnterWindow")
	}
}

func mustTranslations(w *xt.Widget) *xt.Translations {
	if v, ok := w.Get("translations"); ok {
		if tt, ok := v.(*xt.Translations); ok {
			return tt
		}
	}
	return nil
}

func TestSimpleMenuNotify(t *testing.T) {
	app, top := newApp(t)
	top.Realize()
	menu, _ := app.CreateWidget("menu", SimpleMenuClass, top, nil, false)
	var picked string
	e1 := create(t, app, "open", SmeBSBClass, menu, nil)
	e2 := create(t, app, "close", SmeBSBClass, menu, nil)
	_ = e1.AddCallback("callback", xt.Callback{Proc: func(w *xt.Widget, _ xt.CallData) { picked = "open" }})
	_ = e2.AddCallback("callback", xt.Callback{Proc: func(w *xt.Widget, _ xt.CallData) { picked = "close" }})
	_ = menu.Popup(xt.GrabExclusive)
	app.Pump()
	d := menu.Display()
	win, _ := d.Lookup(menu.Window())
	rh := menuRowHeight(menu)
	x, y := win.RootCoords(5, menu.Int("topMargin")+rh+2) // second row
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	app.Pump()
	if picked != "close" {
		t.Errorf("picked = %q", picked)
	}
	if menu.IsPoppedUp() {
		t.Error("menu should pop down after notify")
	}
}

func TestScrollbarThumb(t *testing.T) {
	app, top := newApp(t)
	sb := create(t, app, "sb", ScrollbarClass, top, map[string]string{"length": "100"})
	var jumped string
	_ = sb.AddCallback("jumpProc", xt.Callback{Proc: func(w *xt.Widget, d xt.CallData) { jumped = d["f"] }})
	top.Realize()
	app.Pump()
	d := sb.Display()
	win, _ := d.Lookup(sb.Window())
	x, y := win.RootCoords(5, 50) // half way down
	d.WarpPointer(x, y)
	d.InjectButtonPress(2)
	app.Pump()
	if jumped == "" {
		t.Fatal("jumpProc not called")
	}
	if !strings.HasPrefix(jumped, "0.5") {
		t.Errorf("thumb fraction = %q", jumped)
	}
	ScrollbarSetThumb(sb, 0.25, 0.5)
	if got := sbFloat(sb, "topOfThumb"); got != 0.25 {
		t.Errorf("topOfThumb = %v", got)
	}
}

func TestViewportClipsChild(t *testing.T) {
	app, top := newApp(t)
	vp := create(t, app, "vp", ViewportClass, top, map[string]string{"width": "100", "height": "50", "allowVert": "true"})
	big := create(t, app, "big", ListClass, vp, map[string]string{"list": strings.Repeat("item\n", 50) + "last"})
	top.Realize()
	app.Pump()
	if vp.Int("width") != 100 || vp.Int("height") != 50 {
		t.Errorf("viewport size = %dx%d", vp.Int("width"), vp.Int("height"))
	}
	if big.Int("height") <= 50 {
		t.Errorf("child should keep preferred height, got %d", big.Int("height"))
	}
}

// TestListInViewportDrawsVisibleRows: a 500-item List in a 120-pixel
// Viewport is exposed only where the Viewport shows it, and draws only
// the rows there, also after it scrolls.
func TestListInViewportDrawsVisibleRows(t *testing.T) {
	app, top := newApp(t)
	vp := create(t, app, "vp", ViewportClass, top, map[string]string{
		"width": "120", "height": "120", "allowVert": "true"})
	items := make([]string, 500)
	for i := range items {
		items[i] = fmt.Sprintf("row%03d", i)
	}
	lst := create(t, app, "rows", ListClass, vp, map[string]string{
		"list": strings.Join(items, "\n"), "verticalList": "true"})
	top.Realize()
	app.Pump()
	// visible lists the rows whose cell the Viewport's 120 pixels show.
	visible := func() []string {
		_, ch := listCellSize(lst)
		step := ch + lst.Int("rowSpacing")
		var out []string
		for i, it := range items {
			y := lst.Int("y") + lst.Int("internalHeight") + i*step
			if y < vp.Int("height") && y+ch > 0 {
				out = append(out, it)
			}
		}
		return out
	}
	d, win := lst.Display(), lst.Window()
	for _, frac := range []float64{0, 0.5, 0.0123, 1} {
		ViewportSetLocation(vp, 0, frac)
		app.Pump()
		want := visible()
		if len(want) == 0 || len(want) > 10 {
			t.Fatalf("at %v: %d visible rows, the geometry is not what the test assumes", frac, len(want))
		}
		if got := d.StringsDrawn(win); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("at %v: %d rows drawn (%s ... %s), want the %d visible ones %v",
				frac, len(got), got[0], got[len(got)-1], len(want), want)
		}
	}
}

// listRedisplayFullScan is listRedisplay as it was before it visited
// only the clipped rows: it walks every item and skips those outside
// the clip. TestListRedisplayMatchesFullScan holds the two to the same
// output.
func listRedisplayFullScan(w *xt.Widget) {
	d := w.Display()
	win := w.Window()
	clip := w.Clip()
	gc := d.NewGC()
	gc.Foreground = w.PixelRes("background")
	d.FillRectangle(win, gc, clip.X, clip.Y, clip.W, clip.H)
	gc.Foreground = w.PixelRes("foreground")
	gc.Font = w.FontRes("font")
	items := listItems(w)
	cols := listColumns(w)
	cw, ch := listCellSize(w)
	hl := listState(w).highlight
	for i, it := range items {
		col := i % cols
		row := i / cols
		x := w.Int("internalWidth") + col*(cw+w.Int("columnSpacing"))
		y := w.Int("internalHeight") + row*(ch+w.Int("rowSpacing"))
		if !w.ClipIntersects(x-1, y, cw+2, ch) {
			continue
		}
		if i == hl {
			d.FillRectangle(win, gc, x-1, y, cw+2, ch)
			inv := d.NewGC()
			inv.Foreground = w.PixelRes("background")
			inv.Font = gc.Font
			d.DrawString(win, inv, x, y+gc.Font.Ascent, it)
			continue
		}
		d.DrawString(win, gc, x, y+gc.Font.Ascent, it)
	}
}

// TestListRedisplayMatchesFullScan: for lists of every shape, spacing
// and margin, and for random exposed rectangles, listRedisplay emits
// the same ops in the same order as the full scan.
func TestListRedisplayMatchesFullScan(t *testing.T) {
	fullScan := &xt.Class{Name: "FullScanList", Super: ListClass, Redisplay: listRedisplayFullScan}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(40)
		items := make([]string, n)
		for i := range items {
			items[i] = strings.Repeat("x", 1+rng.Intn(8))
		}
		args := map[string]string{
			"list":           strings.Join(items, "\n"),
			"defaultColumns": fmt.Sprint(1 + rng.Intn(4)),
			"internalWidth":  fmt.Sprint(rng.Intn(6)),
			"internalHeight": fmt.Sprint(rng.Intn(6)),
			"columnSpacing":  fmt.Sprint(rng.Intn(8)),
			"rowSpacing":     fmt.Sprint(rng.Intn(30) - 18),
		}
		var logs [2][]string
		for k, class := range []*xt.Class{ListClass, fullScan} {
			app, top := newApp(t)
			lst := create(t, app, "l", class, top, args)
			top.Realize()
			app.Pump()
			if n > 0 {
				ListHighlight(lst, trial%n)
			}
			app.Pump()
			d, win := lst.Display(), lst.Window()
			sub := rand.New(rand.NewSource(int64(trial)))
			for e := 0; e < 20; e++ {
				w, h := lst.Int("width"), lst.Int("height")
				d.InjectExposeRect(win, sub.Intn(w+10)-5, sub.Intn(h+10)-5, 1+sub.Intn(w), 1+sub.Intn(h/2+1))
				app.Pump()
				for _, op := range d.DrawLogFor(win) {
					logs[k] = append(logs[k], fmt.Sprintf("%v", op))
				}
				logs[k] = append(logs[k], "--")
			}
		}
		for j := 0; j < len(logs[0]) || j < len(logs[1]); j++ {
			if j >= len(logs[0]) || j >= len(logs[1]) || logs[0][j] != logs[1][j] {
				t.Fatalf("trial %d (%v): listRedisplay and the full scan differ at op %d:\n%v\n%v", trial, args, j, logs[0][j:], logs[1][j:])
			}
		}
	}
}

func TestViewportScrolling(t *testing.T) {
	app, top := newApp(t)
	vp := create(t, app, "vp", ViewportClass, top, map[string]string{
		"width": "100", "height": "40", "allowVert": "true"})
	big := create(t, app, "big", ListClass, vp, map[string]string{
		"list": strings.Repeat("row\n", 40) + "last", "verticalList": "true"})
	top.Realize()
	app.Pump()
	if x, y := ViewportLocation(vp); x != 0 || y != 0 {
		t.Fatalf("initial offset = %d,%d", x, y)
	}
	ViewportSetLocation(vp, 0, 0.5)
	_, offY := ViewportLocation(vp)
	if offY <= 0 {
		t.Fatalf("scroll had no effect: offY=%d", offY)
	}
	if big.Int("y") != -offY {
		t.Errorf("child y = %d, want %d", big.Int("y"), -offY)
	}
	// Horizontal scrolling disabled → x offset forced to zero.
	ViewportSetLocation(vp, 0.5, 0.5)
	offX, _ := ViewportLocation(vp)
	if offX != 0 {
		t.Errorf("allowHoriz=false but offX=%d", offX)
	}
	// Scrolling past the end clamps.
	ViewportSetLocation(vp, 0, 5.0)
	_, offY = ViewportLocation(vp)
	if offY > big.Int("height") {
		t.Errorf("offset %d beyond child height %d", offY, big.Int("height"))
	}
}

func TestViewportAutoScrollbar(t *testing.T) {
	app, top := newApp(t)
	vp := create(t, app, "avp", ViewportClass, top, map[string]string{
		"width": "100", "height": "40", "allowVert": "true"})
	create(t, app, "abig", ListClass, vp, map[string]string{
		"list": strings.Repeat("row\n", 30) + "end", "verticalList": "true"})
	top.Realize()
	app.Pump()
	sb := app.WidgetByName("avpVScroll")
	if sb == nil {
		t.Fatal("scrollbar not auto-created")
	}
	if sb.Class != ScrollbarClass {
		t.Fatalf("scrollbar class = %s", sb.Class.Name)
	}
	// Dragging its thumb scrolls the viewport.
	d := sb.Display()
	win, ok := d.Lookup(sb.Window())
	if !ok {
		t.Fatal("scrollbar has no window")
	}
	x, y := win.RootCoords(3, 20) // half way down the 40px bar
	d.WarpPointer(x, y)
	d.InjectButtonPress(2)
	app.Pump()
	if _, offY := ViewportLocation(vp); offY <= 0 {
		t.Errorf("thumb drag did not scroll (offY=%d)", offY)
	}
	// No scrollbar without allowVert.
	vp2 := create(t, app, "plainvp", ViewportClass, top, map[string]string{"width": "50", "height": "20"})
	create(t, app, "pbig", LabelClass, vp2, nil)
	top.Realize()
	app.Pump()
	if app.WidgetByName("plainvpVScroll") != nil {
		t.Error("scrollbar created without allowVert")
	}
}

func TestDialogValue(t *testing.T) {
	app, top := newApp(t)
	top.Realize()
	shell, _ := app.CreateWidget("popup", xt.TransientShellClass, top, nil, false)
	dlg := create(t, app, "dialog", DialogClass, shell, map[string]string{"label": "Name?", "value": "initial"})
	if DialogValue(dlg) != "initial" {
		t.Errorf("value = %q", DialogValue(dlg))
	}
	_ = dlg.SetValues("value", "edited")
	if DialogValue(dlg) != "edited" {
		t.Errorf("value = %q", DialogValue(dlg))
	}
}

func TestStripChart(t *testing.T) {
	app, top := newApp(t)
	sc := create(t, app, "chart", StripChartClass, top, nil)
	top.Realize()
	app.Pump()
	for _, v := range []float64{1, 5, 2} {
		StripChartAddSample(sc, v)
	}
	if got := StripChartSamples(sc); len(got) != 3 || got[1] != 5 {
		t.Errorf("samples = %v", got)
	}
}

func TestGripCallback(t *testing.T) {
	app, top := newApp(t)
	g := create(t, app, "grip", GripClass, top, nil)
	var actions []string
	_ = g.AddCallback("callback", xt.Callback{Proc: func(w *xt.Widget, d xt.CallData) {
		actions = append(actions, d["action"])
	}})
	top.Realize()
	app.Pump()
	press(app, g)
	if strings.Join(actions, ",") != "press,release" {
		t.Errorf("grip actions = %v", actions)
	}
}

func TestAllClassesCreatable(t *testing.T) {
	app, top := newApp(t)
	// Every class in the registry must instantiate without error.
	parentFor := func(c *xt.Class) *xt.Widget { return top }
	menu, _ := app.CreateWidget("menushell", SimpleMenuClass, top, nil, false)
	for i, c := range AllClasses() {
		p := parentFor(c)
		if c.IsSubclassOf(SmeClass) {
			p = menu
		}
		if c == SimpleMenuClass {
			continue // created above
		}
		name := "w" + string(rune('a'+i))
		if _, err := app.CreateWidget(name, c, p, nil, !c.Shell); err != nil {
			t.Errorf("create %s: %v", c.Name, err)
		}
	}
	top.Realize()
	app.Pump()
	if errs := app.Errors(); len(errs) > 0 {
		t.Errorf("dispatch errors: %v", errs)
	}
}

// TestTextLongLineDisplayList pins the display list of an AsciiText
// holding a line far wider than the widget, repainted whole and through
// clips that miss, cut and reach past the long line's text: testing a
// line against the clip measures it only up to the clip's right edge,
// and that must not change what is drawn. Regenerate the golden with
// WAFE_UPDATE_GOLDEN=1 only for an intended change.
func TestTextLongLineDisplayList(t *testing.T) {
	app, top := newApp(t)
	long := strings.Repeat("wide \u00fcn\u00efcode ", 500)
	txt := create(t, app, "t", AsciiTextClass, top, map[string]string{
		"string": "short\n" + long + "\n\nlast " + long, "editType": "edit",
		"width": "120", "height": "80",
	})
	top.Realize()
	app.Pump()
	var b strings.Builder
	dump := func(title string) {
		fmt.Fprintf(&b, "-- %s\n", title)
		for _, op := range txt.Display().DrawLogFor(txt.Window()) {
			text := op.Text
			if len(text) > 24 {
				text = fmt.Sprintf("%s...(%d bytes)", text[:24], len(text))
			}
			fmt.Fprintf(&b, "%s %d,%d %dx%d %d,%d %q\n", op.Kind, op.X, op.Y, op.W, op.H, op.X2, op.Y2, text)
		}
	}
	dump("whole")
	for _, r := range []xproto.Rect{
		{X: 40, Y: 10, W: 30, H: 20},  // cuts the long line, misses "short"
		{X: 0, Y: 0, W: 2, H: 80},     // left of every line's text
		{X: 100, Y: 0, W: 20, H: 80},  // right edge: long lines only
		{X: 2, Y: 28, W: 60, H: 14},   // the empty line's row
		{X: 10, Y: 40, W: 110, H: 13}, // the last line's row
	} {
		txt.Damage(r)
		app.Pump()
		dump(fmt.Sprintf("clip %d,%d %dx%d", r.X, r.Y, r.W, r.H))
	}
	golden := filepath.Join("testdata", "text_long_line.golden")
	if os.Getenv("WAFE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with WAFE_UPDATE_GOLDEN=1)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("display list differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
