package xproto

import (
	"strings"
	"testing"
)

func TestMotionEvents(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 100, 100, 0)
	d.SelectInput(w, PointerMotionMask)
	d.MapWindow(w)
	drain(d)
	d.WarpPointer(10, 10)
	d.WarpPointer(20, 30)
	evs := drain(d)
	if len(evs) != 2 {
		t.Fatalf("motion events = %d", len(evs))
	}
	if evs[1].Type != MotionNotify || evs[1].X != 20 || evs[1].Y != 30 {
		t.Errorf("motion = %+v", evs[1])
	}
}

func TestMotionStateIncludesButtons(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 100, 100, 0)
	d.SelectInput(w, PointerMotionMask|ButtonPressMask|ButtonReleaseMask)
	d.MapWindow(w)
	drain(d)
	d.WarpPointer(10, 10)
	d.InjectButtonPress(2)
	d.WarpPointer(15, 15)
	evs := drain(d)
	var motion *Event
	for i := range evs {
		if evs[i].Type == MotionNotify && evs[i].X == 15 {
			motion = &evs[i]
		}
	}
	if motion == nil || motion.State&Button2Mask == 0 {
		t.Errorf("drag motion missing Button2Mask: %+v", motion)
	}
}

// TestImplicitButtonGrab: after a press, pointer events follow the
// pressed window until release (the X automatic grab).
func TestImplicitButtonGrab(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 0, 0, 50, 50, 0)
	b := mustWindow(t, d, d.Root, 100, 0, 50, 50, 0)
	d.SelectInput(a, ButtonPressMask|ButtonReleaseMask|PointerMotionMask)
	d.SelectInput(b, ButtonPressMask|ButtonReleaseMask|PointerMotionMask)
	d.MapWindow(a)
	d.MapWindow(b)
	drain(d)
	d.WarpPointer(10, 10)
	d.InjectButtonPress(1)
	drain(d)
	// Drag onto b: motion and release still go to a.
	d.WarpPointer(110, 10)
	d.InjectButtonRelease(1)
	evs := drain(d)
	var motionWin, releaseWin WindowID
	for _, ev := range evs {
		switch ev.Type {
		case MotionNotify:
			motionWin = ev.Window
		case ButtonRelease:
			releaseWin = ev.Window
		}
	}
	if motionWin != a {
		t.Errorf("drag motion went to %d, want a=%d", motionWin, a)
	}
	if releaseWin != a {
		t.Errorf("release went to %d, want a=%d", releaseWin, a)
	}
	// After release the grab is gone: next press goes to b.
	d.InjectButtonPress(1)
	evs = drain(d)
	if len(evs) == 0 || evs[0].Window != b {
		t.Errorf("post-release press = %+v, want window b", evs)
	}
	d.InjectButtonRelease(1)
}

func TestKeyToUnselectedWindowIsDropped(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 10, 10, 0)
	d.MapWindow(w)
	d.SetInputFocus(w)
	drain(d)
	d.InjectKeycode(198, true) // no KeyPressMask anywhere
	if evs := drain(d); len(evs) != 0 {
		t.Errorf("events = %+v", evs)
	}
	// Modifier state still tracked even when undelivered.
	d.InjectKeycode(174, true) // Shift_L
	d.SelectInput(w, KeyPressMask)
	d.InjectKeycode(198, true)
	evs := drain(d)
	if len(evs) != 1 || evs[0].Keysym != "W" {
		t.Errorf("shifted key after undelivered shift press = %+v", evs)
	}
}

func TestKeymapLookups(t *testing.T) {
	k := DefaultKeymap()
	if s, ok := k.StrokesFor('\r'); !ok || s != (Stroke{Keycode: 189}) {
		t.Errorf("Return stroke = %+v/%v", s, ok)
	}
	if s, ok := k.StrokesFor('!'); !ok || s != (Stroke{Keycode: 197, Shift: true}) {
		t.Errorf("exclam stroke = %+v/%v", s, ok)
	}
	if _, ok := k.StrokesFor('€'); ok {
		t.Error("unmapped rune resolved")
	}
	if sym, _ := k.Lookup(197, true); sym != "exclam" {
		t.Errorf("lookup shifted 197 = %q", sym)
	}
	if sym, r := k.Lookup(198, false); sym != "w" || r != 'w' {
		t.Errorf("lookup 198 = %q/%q", sym, string(r))
	}
	if sym, r := k.Lookup(198, true); sym != "W" || r != 'W' {
		t.Errorf("shifted lookup = %q/%q", sym, string(r))
	}
	if sym, _ := k.Lookup(9999, false); sym != "" {
		t.Errorf("unknown keycode = %q", sym)
	}
	if _, ok := k.StrokesFor('€'); ok {
		t.Error("unmapped rune resolved")
	}
}

func TestTypeStringUnknownRune(t *testing.T) {
	d := NewTestDisplay()
	if err := d.TypeString("ok€"); err == nil {
		t.Error("expected error for unmapped rune")
	}
}

func TestRenderImageOps(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 60, 40, 0)
	d.MapWindow(w)
	gc := d.NewGC()
	gc.Foreground = Pixel{0, 0, 255}
	d.DrawLine(w, gc, 0, 0, 59, 39)
	d.DrawRectangle(w, gc, 5, 5, 20, 10)
	d.DrawPoint(w, gc, 30, 30)
	d.DrawString(w, gc, 2, 20, "txt")
	img := d.RenderImage(d.Root)
	// Line start pixel.
	if r, g, b, _ := img.At(0, 0).RGBA(); r != 0 || g != 0 || b>>8 != 255 {
		t.Error("line pixel missing")
	}
	// Rectangle corner.
	if _, _, b, _ := img.At(5, 5).RGBA(); b>>8 != 255 {
		t.Error("rect pixel missing")
	}
	// Point.
	if _, _, b, _ := img.At(30, 30).RGBA(); b>>8 != 255 {
		t.Error("point pixel missing")
	}
	// Text underline rule (y+1 of the baseline).
	if _, _, b, _ := img.At(3, 21).RGBA(); b>>8 != 255 {
		t.Error("text rule missing")
	}
}

func TestCopyPixmapRecorded(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 20, 20, 0)
	pm, err := ParseXBM("#define i_width 8\n#define i_height 1\nstatic char i_bits[] = {0x0f};")
	if err != nil {
		t.Fatal(err)
	}
	d.CopyPixmap(w, pm, 3, 4)
	d.CopyPixmap(w, nil, 0, 0) // nil is a no-op
	ops := d.DrawLogFor(w)
	if len(ops) != 1 || ops[0].Kind != OpCopyPixmap || ops[0].PixmapName != "i" {
		t.Errorf("ops = %+v", ops)
	}
}

func TestSnapshotClipsToSubtree(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 0, 0, 120, 26, 0)
	b := mustWindow(t, d, d.Root, 300, 300, 120, 26, 0)
	d.MapWindow(a)
	d.MapWindow(b)
	gc := d.NewGC()
	d.DrawString(a, gc, 0, 11, "visible")
	d.DrawString(b, gc, 0, 11, "elsewhere")
	snap := d.Snapshot(a)
	if !strings.Contains(snap, "visible") {
		t.Errorf("snapshot missing own text:\n%s", snap)
	}
	if strings.Contains(snap, "elsewhere") {
		t.Errorf("snapshot leaked sibling text:\n%s", snap)
	}
}

func TestPixelString(t *testing.T) {
	if got := (Pixel{R: 255, G: 99, B: 71}).String(); got != "#ff6347" {
		t.Errorf("Pixel.String = %q", got)
	}
}

func TestEventTypeStrings(t *testing.T) {
	for typ, want := range map[EventType]string{
		KeyPress: "KeyPress", ButtonRelease: "ButtonRelease", Expose: "Expose",
		EnterNotify: "EnterNotify", ClientMessage: "ClientMessage",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q", typ, typ.String())
		}
	}
	if !strings.Contains(EventType(99).String(), "99") {
		t.Error("unknown event type string")
	}
}

func TestFocusEvents(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 0, 0, 10, 10, 0)
	b := mustWindow(t, d, d.Root, 20, 0, 10, 10, 0)
	d.SelectInput(a, FocusChangeMask)
	d.SelectInput(b, FocusChangeMask)
	d.SetInputFocus(a)
	d.SetInputFocus(b)
	evs := drain(d)
	var kinds []string
	for _, ev := range evs {
		kinds = append(kinds, ev.Type.String())
	}
	want := "FocusIn,FocusOut,FocusIn"
	if strings.Join(kinds, ",") != want {
		t.Errorf("focus events = %v, want %s", kinds, want)
	}
	if d.focus != b {
		t.Errorf("focus = %d", d.focus)
	}
	// Destroying the focus window clears focus.
	d.DestroyWindow(b)
	if d.focus != None {
		t.Error("focus not cleared on destroy")
	}
}
