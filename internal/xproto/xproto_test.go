package xproto

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func drain(d *Display) []Event {
	var evs []Event
	for {
		ev, ok := d.NextEvent()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

func mustWindow(t *testing.T, d *Display, parent WindowID, x, y, w, h, bw int) WindowID {
	t.Helper()
	id, err := d.CreateWindow(parent, x, y, w, h, bw)
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	return id
}

func TestCreateDestroyWindowTree(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 0, 0, 100, 100, 0)
	b := mustWindow(t, d, a, 10, 10, 50, 50, 1)
	c := mustWindow(t, d, b, 5, 5, 20, 20, 0)
	if _, ok := d.Lookup(c); !ok {
		t.Fatal("child c missing")
	}
	d.DestroyWindow(a)
	for _, id := range []WindowID{a, b, c} {
		if _, ok := d.Lookup(id); ok {
			t.Errorf("window %d survived subtree destroy", id)
		}
	}
	// Root is indestructible.
	d.DestroyWindow(d.Root)
	if _, ok := d.Lookup(d.Root); !ok {
		t.Error("root window destroyed")
	}
}

func TestMapGeneratesExpose(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 100, 50, 0)
	d.SelectInput(w, ExposureMask|StructureNotifyMask)
	d.MapWindow(w)
	evs := drain(d)
	var sawMap, sawExpose bool
	for _, ev := range evs {
		switch ev.Type {
		case MapNotify:
			sawMap = true
		case Expose:
			sawExpose = true
			if ev.Width != 100 || ev.Height != 50 {
				t.Errorf("expose size %dx%d", ev.Width, ev.Height)
			}
		}
	}
	if !sawMap || !sawExpose {
		t.Errorf("map=%v expose=%v, want both", sawMap, sawExpose)
	}
}

func TestUnmappedWindowNotExposed(t *testing.T) {
	d := NewTestDisplay()
	parent := mustWindow(t, d, d.Root, 0, 0, 100, 100, 0)
	child := mustWindow(t, d, parent, 0, 0, 10, 10, 0)
	d.SelectInput(child, ExposureMask)
	d.MapWindow(child) // parent still unmapped → not viewable
	for _, ev := range drain(d) {
		if ev.Type == Expose {
			t.Error("expose delivered to non-viewable window")
		}
	}
}

func TestPointerCrossingEvents(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 0, 0, 100, 100, 0)
	b := mustWindow(t, d, d.Root, 200, 0, 100, 100, 0)
	d.SelectInput(a, EnterWindowMask|LeaveWindowMask)
	d.SelectInput(b, EnterWindowMask|LeaveWindowMask)
	d.WarpPointer(600, 600) // neutral root area
	d.MapWindow(a)
	d.MapWindow(b)
	drain(d)
	d.WarpPointer(50, 50) // into a
	evs := drain(d)
	if len(evs) != 1 || evs[0].Type != EnterNotify || evs[0].Window != a {
		t.Fatalf("expected EnterNotify on a, got %+v", evs)
	}
	d.WarpPointer(250, 50) // a → b
	evs = drain(d)
	if len(evs) != 2 || evs[0].Type != LeaveNotify || evs[0].Window != a ||
		evs[1].Type != EnterNotify || evs[1].Window != b {
		t.Fatalf("expected Leave(a),Enter(b), got %+v", evs)
	}
}

func TestButtonEventsWithCoordinates(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 100, 100, 50, 50, 0)
	d.SelectInput(w, ButtonPressMask|ButtonReleaseMask)
	d.MapWindow(w)
	drain(d)
	d.WarpPointer(110, 120)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	evs := drain(d)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	p := evs[0]
	if p.Type != ButtonPress || p.Button != 1 || p.X != 10 || p.Y != 20 || p.XRoot != 110 || p.YRoot != 120 {
		t.Errorf("press = %+v", p)
	}
	r := evs[1]
	if r.Type != ButtonRelease || r.State&Button1Mask == 0 {
		t.Errorf("release = %+v (state should include Button1Mask)", r)
	}
}

func TestButtonPropagatesToSelectingAncestor(t *testing.T) {
	d := NewTestDisplay()
	parent := mustWindow(t, d, d.Root, 0, 0, 100, 100, 0)
	child := mustWindow(t, d, parent, 10, 10, 20, 20, 0)
	d.SelectInput(parent, ButtonPressMask)
	d.MapWindow(parent)
	d.MapWindow(child)
	drain(d)
	d.WarpPointer(15, 15) // inside child
	d.InjectButtonPress(1)
	evs := drain(d)
	if len(evs) != 1 || evs[0].Window != parent {
		t.Fatalf("expected press routed to parent, got %+v", evs)
	}
}

// TestXevKeycodes reproduces the paper's xev example: typing "w!" must
// produce keycode/char/keysym triples 198/w/w, 174/-/Shift_L and
// 197/!/exclam.
func TestXevKeycodes(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 100, 20, 0)
	d.SelectInput(w, KeyPressMask)
	d.MapWindow(w)
	d.SetInputFocus(w)
	drain(d)
	if err := d.TypeString("w!"); err != nil {
		t.Fatal(err)
	}
	evs := drain(d)
	var lines []string
	for _, ev := range evs {
		if ev.Type != KeyPress {
			continue
		}
		ch := ""
		if ev.Rune != 0 {
			ch = string(ev.Rune)
		}
		lines = append(lines, strings.TrimSpace(strings.Join([]string{itoa(ev.Keycode), ch, ev.Keysym}, " ")))
	}
	want := []string{"198 w w", "174  Shift_L", "197 ! exclam"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q, want %q", lines, want)
	}
	for i := range want {
		if strings.Join(strings.Fields(lines[i]), " ") != strings.Join(strings.Fields(want[i]), " ") {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestShiftStateAffectsKeysym(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 100, 20, 0)
	d.SelectInput(w, KeyPressMask|KeyReleaseMask)
	d.MapWindow(w)
	d.SetInputFocus(w)
	drain(d)
	if err := d.TypeString("A"); err != nil {
		t.Fatal(err)
	}
	evs := drain(d)
	var presses []Event
	for _, ev := range evs {
		if ev.Type == KeyPress {
			presses = append(presses, ev)
		}
	}
	// Shift press then 'A' press.
	if len(presses) != 2 {
		t.Fatalf("presses = %d, want 2", len(presses))
	}
	if presses[0].Keysym != "Shift_L" {
		t.Errorf("first press %q, want Shift_L", presses[0].Keysym)
	}
	if presses[1].Keysym != "A" || presses[1].Rune != 'A' {
		t.Errorf("second press = %q/%q", presses[1].Keysym, string(presses[1].Rune))
	}
	if presses[1].State&ShiftMask == 0 {
		t.Error("shift not in state mask")
	}
}

func TestFocusRouting(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 0, 0, 50, 50, 0)
	b := mustWindow(t, d, d.Root, 60, 0, 50, 50, 0)
	d.SelectInput(a, KeyPressMask)
	d.SelectInput(b, KeyPressMask)
	d.MapWindow(a)
	d.MapWindow(b)
	d.SetInputFocus(b)
	drain(d)
	d.InjectKeycode(198, true) // 'w'
	evs := drain(d)
	if len(evs) != 1 || evs[0].Window != b {
		t.Fatalf("key went to %+v, want window b", evs)
	}
}

func TestGrabRedirectsPointer(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 0, 0, 50, 50, 0)
	menu := mustWindow(t, d, d.Root, 60, 0, 50, 50, 0)
	d.SelectInput(a, ButtonPressMask)
	d.SelectInput(menu, ButtonPressMask)
	d.MapWindow(a)
	d.MapWindow(menu)
	drain(d)
	d.WarpPointer(10, 10) // over a
	d.GrabPointer(menu)
	d.InjectButtonPress(1)
	evs := drain(d)
	if len(evs) != 1 || evs[0].Window != menu {
		t.Fatalf("grabbed press delivered to %+v, want menu", evs)
	}
	d.UngrabPointer()
	d.InjectButtonPress(2)
	evs = drain(d)
	if len(evs) != 1 || evs[0].Window != a {
		t.Fatalf("ungrabbed press delivered to %+v, want a", evs)
	}
}

func TestConfigureNotifyAndGrowExpose(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 50, 50, 0)
	d.SelectInput(w, StructureNotifyMask|ExposureMask)
	d.MapWindow(w)
	drain(d)
	d.ConfigureWindow(w, 10, 10, 100, 100)
	evs := drain(d)
	var sawConfig, sawExpose bool
	for _, ev := range evs {
		if ev.Type == ConfigureNotify && ev.Width == 100 {
			sawConfig = true
		}
		if ev.Type == Expose {
			sawExpose = true
		}
	}
	if !sawConfig || !sawExpose {
		t.Errorf("config=%v expose=%v", sawConfig, sawExpose)
	}
}

func TestMultiDisplayRegistry(t *testing.T) {
	d1 := OpenDisplay("unit-reg-a:0")
	d2 := OpenDisplay("unit-reg-b:0")
	if d1 == d2 {
		t.Fatal("distinct names share a display")
	}
	if OpenDisplay("unit-reg-a:0") != d1 {
		t.Error("reopening a display must return the same instance")
	}
	registryMu.Lock()
	if registry["unit-reg-a:0"] != d1 || registry["unit-reg-b:0"] != d2 {
		t.Error("the registry misses an open display")
	}
	registryMu.Unlock()
	CloseDisplay(d1)
	CloseDisplay(d2)
}

func TestColorParsing(t *testing.T) {
	cases := []struct {
		spec string
		want Pixel
	}{
		{"red", Pixel{255, 0, 0}},
		{"Red", Pixel{255, 0, 0}},
		{"tomato", Pixel{255, 99, 71}},
		{"#fff", Pixel{255, 255, 255}},
		{"#ff0000", Pixel{255, 0, 0}},
		{"#ffff00000000", Pixel{255, 0, 0}},
		{"navy blue", Pixel{0, 0, 128}},
	}
	for _, c := range cases {
		got, err := ParseColor(c.spec)
		if err != nil {
			t.Errorf("ParseColor(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseColor(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
	if _, err := ParseColor("notacolor"); err == nil {
		t.Error("expected error for unknown color")
	}
	if _, err := ParseColor("#12345"); err == nil {
		t.Error("expected error for bad hex length")
	}
}

func TestFontMetrics(t *testing.T) {
	f := LoadFont("fixed")
	if f.Width != 6 || f.Height() != 13 {
		t.Errorf("fixed = %dx%d", f.Width, f.Height())
	}
	if got := f.TextWidth("hello"); got != 30 {
		t.Errorf("TextWidth(hello) = %d", got)
	}
	bold := LoadFont("*b&h-lucida-bold-r*14*")
	if !bold.Bold {
		t.Error("XLFD bold pattern not detected")
	}
	if LoadFont("") == nil || LoadFont("no-such-font") == nil {
		t.Error("fallback font must always resolve")
	}
}

func TestDrawLogAndSnapshot(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 120, 26, 1)
	d.MapWindow(w)
	gc := d.NewGC()
	d.ClearWindow(w)
	d.DrawString(w, gc, 6, 11, "hello")
	ops := d.DrawLogFor(w)
	if len(ops) != 2 || ops[1].Kind != OpDrawString || ops[1].Text != "hello" {
		t.Fatalf("ops = %+v", ops)
	}
	snap := d.Snapshot(d.Root)
	if !strings.Contains(snap, "hello") {
		t.Errorf("snapshot missing text:\n%s", snap)
	}
	if !strings.Contains(snap, "+") {
		t.Errorf("snapshot missing border frame:\n%s", snap)
	}
	if got := d.StringsDrawn(w); len(got) != 1 || got[0] != "hello" {
		t.Errorf("StringsDrawn = %v", got)
	}
}

func TestRenderImage(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 40, 20, 0)
	d.MapWindow(w)
	gc := d.NewGC()
	gc.Foreground = Pixel{255, 0, 0}
	d.FillRectangle(w, gc, 0, 0, 10, 10)
	img := d.RenderImage(d.Root)
	r, g, b, _ := img.At(5, 5).RGBA()
	if r>>8 != 255 || g != 0 || b != 0 {
		t.Errorf("pixel at 5,5 = %d,%d,%d; want red", r>>8, g>>8, b>>8)
	}
}

func TestXBMParsing(t *testing.T) {
	src := `
#define tiny_width 8
#define tiny_height 2
static char tiny_bits[] = {
  0x01, 0x80};`
	pm, err := ParseXBM(src)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Width != 8 || pm.Height != 2 || pm.Depth != 1 {
		t.Fatalf("pixmap = %+v", pm)
	}
	// bit 0 of row 0 set → black at (0,0)
	if p := pm.Pixels[0]; p != (Pixel{}) {
		t.Errorf("(0,0) = %v, want black", p)
	}
	if p := pm.Pixels[1]; p != (Pixel{255, 255, 255}) {
		t.Errorf("(1,0) = %v, want white", p)
	}
	// bit 7 of row 1 set → black at (7,1)
	if p := pm.Pixels[8+7]; p != (Pixel{}) {
		t.Errorf("(7,1) = %v, want black", p)
	}
}

func TestXPMParsing(t *testing.T) {
	src := `/* XPM */
static char *icon[] = {
"3 2 2 1",
". c None",
"# c red",
"#.#",
".#."
};`
	pm, err := ParseXPM(src)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Width != 3 || pm.Height != 2 {
		t.Fatalf("size = %dx%d", pm.Width, pm.Height)
	}
	if p, opaque := pm.Pixels[0], pm.Mask[0]; !opaque || p != (Pixel{255, 0, 0}) {
		t.Errorf("(0,0) = %v opaque=%v", p, opaque)
	}
	if opaque := pm.Mask[1]; opaque {
		t.Error("(1,0) should be transparent (None)")
	}
}

func TestBitmapOrPixmapFallback(t *testing.T) {
	// The Wafe converter behaviour: XBM tried first, then XPM.
	xbm := "#define a_width 8\n#define a_height 1\nstatic char a_bits[] = {0xff};"
	if pm, err := ParseBitmapOrPixmap(xbm); err != nil || pm.Depth != 1 {
		t.Errorf("XBM path failed: %v", err)
	}
	xpm := "static char *x[] = {\"1 1 1 1\", \"a c blue\", \"a\"};"
	if pm, err := ParseBitmapOrPixmap(xpm); err != nil || pm.Depth != 24 {
		t.Errorf("XPM fallback failed: %v", err)
	}
	if _, err := ParseBitmapOrPixmap("garbage"); err == nil {
		t.Error("garbage should fail both parsers")
	}
}

func TestSelections(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 10, 10, 0)
	d.OwnSelection("PRIMARY", w, func(target string) (string, bool) {
		if target == "STRING" {
			return "selected-text", true
		}
		return "", false
	})
	if d.selections["PRIMARY"].owner != w {
		t.Error("owner mismatch")
	}
	if v, ok := d.ConvertSelection("PRIMARY", "STRING"); !ok || v != "selected-text" {
		t.Errorf("convert = %q/%v", v, ok)
	}
	if _, ok := d.ConvertSelection("PRIMARY", "PIXMAP"); ok {
		t.Error("unsupported target should fail")
	}
	d.DisownSelection("PRIMARY", w)
	if d.selections["PRIMARY"] != nil {
		t.Error("selection not disowned")
	}
}

func TestRootCoords(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 100, 50, 200, 200, 0)
	b := mustWindow(t, d, a, 10, 20, 100, 100, 2)
	bw, _ := d.Lookup(b)
	x, y := bw.RootCoords(1, 1)
	// a at (100,50), b at +10+20 with border 2 → (112, 72) + (1,1)
	if x != 113 || y != 73 {
		t.Errorf("RootCoords = %d,%d; want 113,73", x, y)
	}
}

// Property: WarpPointer never generates unbalanced Enter/Leave pairs —
// every Leave is eventually matched by an Enter in the same batch.
func TestCrossingBalanceProperty(t *testing.T) {
	d := NewTestDisplay()
	var wins []WindowID
	for i := 0; i < 4; i++ {
		w := mustWindow(t, d, d.Root, i*100, 0, 90, 90, 0)
		d.SelectInput(w, EnterWindowMask|LeaveWindowMask)
		d.MapWindow(w)
		wins = append(wins, w)
	}
	drain(d)
	f := func(seq []uint16) bool {
		for _, p := range seq {
			d.WarpPointer(int(p)%400, int(p)%90)
		}
		evs := drain(d)
		depth := 0
		for _, ev := range evs {
			switch ev.Type {
			case EnterNotify:
				depth++
			case LeaveNotify:
				depth--
			}
			if depth < -1 || depth > 1 {
				return false
			}
		}
		return depth >= -1 && depth <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: window lookup after arbitrary create/destroy interleavings
// never panics and parents never reference destroyed children.
func TestTreeIntegrityProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		d := NewTestDisplay()
		ids := []WindowID{d.Root}
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // create under random existing window
				parent := ids[int(op)%len(ids)]
				if _, ok := d.Lookup(parent); !ok {
					continue
				}
				id, err := d.CreateWindow(parent, int(op), int(op), 10+int(op)%50, 10, 0)
				if err == nil {
					ids = append(ids, id)
				}
			case 2: // destroy random window
				d.DestroyWindow(ids[int(op)%len(ids)])
			}
		}
		// Integrity: every child id referenced by a live window resolves.
		for _, id := range ids {
			w, ok := d.Lookup(id)
			if !ok {
				continue
			}
			for _, c := range w.Children {
				cw, ok := d.Lookup(c)
				if !ok {
					return false
				}
				if cw.Parent != id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDestroyWindowFreesDrawingState: however many create/draw/damage/
// destroy cycles run, the display list and the damage map hold entries
// only for live windows — destroyed windows, with or without damage
// still pending, leave nothing behind.
func TestDestroyWindowFreesDrawingState(t *testing.T) {
	d := NewTestDisplay()
	gc := d.NewGC()
	paint := func(w WindowID) {
		d.SelectInput(w, ExposureMask)
		d.MapWindow(w)
		d.ClearWindow(w)
		d.DrawString(w, gc, 1, 9, "x")
		d.DamageRect(w, 0, 0, 5, 5)
	}
	live := mustWindow(t, d, d.Root, 0, 0, 50, 50, 0)
	paint(live)
	for i := 0; i < 200; i++ {
		shell := mustWindow(t, d, d.Root, 0, 0, 80, 40, 0)
		child := mustWindow(t, d, shell, 2, 2, 30, 10, 1)
		paint(shell)
		paint(child)
		if i%2 == 0 {
			drain(d) // the other half die with damage pending
		}
		d.DestroyWindow(shell)
	}
	drain(d)
	for id := range d.damage {
		if _, ok := d.windows[id]; !ok {
			t.Errorf("damage keeps destroyed window %d", id)
		}
	}
	if len(d.windows[live].ops) == 0 {
		t.Error("live window lost its display list")
	}
}
