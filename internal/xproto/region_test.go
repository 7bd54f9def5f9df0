package xproto

import (
	"strings"
	"testing"

	"wafe/internal/obs"
)

func TestRectBasics(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 10, H: 10}
	b := Rect{X: 5, Y: 5, W: 10, H: 10}
	if !a.Intersects(b) {
		t.Error("overlapping rects must intersect")
	}
	if a.Intersects(Rect{X: 10, Y: 0, W: 5, H: 5}) {
		t.Error("edge-adjacent rects do not strictly intersect")
	}
	if got := a.Union(b); got != (Rect{X: 0, Y: 0, W: 15, H: 15}) {
		t.Errorf("Union = %+v", got)
	}
	if got := a.Intersect(b); got != (Rect{X: 5, Y: 5, W: 5, H: 5}) {
		t.Errorf("Intersect = %+v", got)
	}
	if !a.Contains(Rect{X: 2, Y: 2, W: 3, H: 3}) || a.Contains(b) {
		t.Error("Contains wrong")
	}
	var empty Rect
	if !empty.Empty() || !a.Contains(empty) {
		t.Error("empty rect handling wrong")
	}
}

func TestRegionCoalescesTouchingRects(t *testing.T) {
	var r Region
	// Two edge-adjacent rects merge into one.
	r.Add(Rect{X: 0, Y: 0, W: 10, H: 10})
	r.Add(Rect{X: 10, Y: 0, W: 10, H: 10})
	if r.Len() != 1 {
		t.Fatalf("Len = %d after adjacent add, want 1", r.Len())
	}
	if got := r.Rects()[0]; got != (Rect{X: 0, Y: 0, W: 20, H: 10}) {
		t.Errorf("merged = %+v", got)
	}
	// A disjoint rect stays separate.
	r.Add(Rect{X: 100, Y: 100, W: 5, H: 5})
	if r.Len() != 2 {
		t.Fatalf("Len = %d after disjoint add, want 2", r.Len())
	}
	// A rect bridging both triggers the cascade: everything merges.
	r.Add(Rect{X: 0, Y: 0, W: 101, H: 101})
	if r.Len() != 1 {
		t.Fatalf("Len = %d after bridging add, want 1", r.Len())
	}
	if r.Added() != 4 {
		t.Errorf("Added = %d, want 4", r.Added())
	}
}

func TestRegionCapOverflowMergesLeastGrowth(t *testing.T) {
	var r Region
	// Fill all slots with well-separated rects.
	for i := 0; i < regionCap; i++ {
		r.Add(Rect{X: i * 100, Y: 0, W: 10, H: 10})
	}
	if r.Len() != regionCap {
		t.Fatalf("Len = %d, want %d", r.Len(), regionCap)
	}
	// One more disjoint rect must merge into an existing slot rather
	// than grow the region, and the merge target should be the nearest
	// rect (least area growth): the one at x=700.
	r.Add(Rect{X: 720, Y: 0, W: 10, H: 10})
	if r.Len() != regionCap {
		t.Fatalf("Len = %d after overflow, want %d", r.Len(), regionCap)
	}
	found := false
	for _, rc := range r.Rects() {
		if rc.X == 700 && rc.W == 30 {
			found = true
		}
	}
	if !found {
		t.Errorf("overflow did not merge into nearest rect: %+v", r.Rects())
	}
}

func TestExposeCoalescingAndMetrics(t *testing.T) {
	d := NewTestDisplay()
	reg := obs.New()
	d.SetMetrics(reg)
	m := &reg.Xproto
	w := mustWindow(t, d, d.Root, 0, 0, 100, 100, 0)
	d.SelectInput(w, ExposureMask)
	d.MapWindow(w)
	drain(d) // initial map expose
	// Three overlapping damage rects coalesce into one Expose.
	d.InjectExposeRect(w, 0, 0, 20, 20)
	d.InjectExposeRect(w, 10, 10, 20, 20)
	d.InjectExposeRect(w, 20, 20, 20, 20)
	evs := drain(d)
	if len(evs) != 1 || evs[0].Type != Expose {
		t.Fatalf("got %d events, want 1 coalesced Expose: %+v", len(evs), evs)
	}
	if evs[0].X != 0 || evs[0].Y != 0 || evs[0].Width != 40 || evs[0].Height != 40 {
		t.Errorf("coalesced rect = %d,%d %dx%d, want 0,0 40x40", evs[0].X, evs[0].Y, evs[0].Width, evs[0].Height)
	}
	if m.ExposesCoalesced.Load() != 2 {
		t.Errorf("exposes_coalesced = %d, want 2", m.ExposesCoalesced.Load())
	}
	if m.DamageRects.Load() < 3 {
		t.Errorf("damage_rects = %d, want >= 3", m.DamageRects.Load())
	}
}

func TestInjectExposeDroppedCounted(t *testing.T) {
	d := NewTestDisplay()
	reg := obs.New()
	d.SetMetrics(reg)
	m := &reg.Xproto
	w := mustWindow(t, d, d.Root, 0, 0, 50, 50, 0)
	d.MapWindow(w)
	// No ExposureMask selected: the expose is dropped, and counted.
	d.InjectExposeRect(w, 0, 0, 0, 0)
	if evs := drain(d); len(evs) != 0 {
		t.Fatalf("got %d events, want 0", len(evs))
	}
	if m.ExposesDropped.Load() != 1 {
		t.Errorf("exposes_dropped = %d, want 1", m.ExposesDropped.Load())
	}
	// Nonexistent window: dropped too.
	d.InjectExposeRect(WindowID(9999), 0, 0, 1, 1)
	if m.ExposesDropped.Load() != 2 {
		t.Errorf("exposes_dropped = %d, want 2", m.ExposesDropped.Load())
	}
}

func TestDamageRectClippedToWindow(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 50, 40, 0)
	d.SelectInput(w, ExposureMask)
	d.MapWindow(w)
	drain(d)
	d.DamageRect(w, 40, 30, 100, 100)
	evs := drain(d)
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].X != 40 || evs[0].Y != 30 || evs[0].Width != 10 || evs[0].Height != 10 {
		t.Errorf("clipped rect = %d,%d %dx%d, want 40,30 10x10", evs[0].X, evs[0].Y, evs[0].Width, evs[0].Height)
	}
	// Fully outside: no event at all.
	d.DamageRect(w, 60, 60, 10, 10)
	if evs := drain(d); len(evs) != 0 {
		t.Errorf("out-of-window damage delivered: %+v", evs)
	}
}

func TestClearAreaScrubsDisplayList(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 120, 60, 0)
	d.MapWindow(w)
	gc := d.NewGC()
	d.FillRectangle(w, gc, 10, 10, 20, 20) // fully inside the clear
	d.FillRectangle(w, gc, 0, 0, 120, 60)  // spans the window, kept
	d.DrawString(w, gc, 25, 20, "hello")   // intersects the clear, dropped
	d.DrawString(w, gc, 80, 50, "safe")    // outside, kept
	d.ClearArea(w, 5, 5, 40, 40)
	ops := d.DrawLogFor(w)
	var kinds []string
	var texts []string
	for _, op := range ops {
		kinds = append(kinds, op.Kind.String())
		if op.Kind == OpDrawString {
			texts = append(texts, op.Text)
		}
	}
	if strings.Join(texts, ",") != "safe" {
		t.Errorf("strings after scrub = %v, want [safe]", texts)
	}
	// The contained fill is gone; the spanning fill survives; the scrub
	// appended a partial clear.
	want := "FillRectangle,DrawString,ClearArea"
	if got := strings.Join(kinds, ","); got != want {
		t.Errorf("ops after scrub = %s, want %s", got, want)
	}
	last := ops[len(ops)-1]
	if last.X != 5 || last.Y != 5 || last.W != 40 || last.H != 40 {
		t.Errorf("partial clear rect = %d,%d %dx%d", last.X, last.Y, last.W, last.H)
	}
}

func TestClearAreaFullWindowResetsLog(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 30, 30, 0)
	gc := d.NewGC()
	d.DrawString(w, gc, 5, 12, "x")
	d.ClearArea(w, 0, 0, 30, 30)
	ops := d.DrawLogFor(w)
	if len(ops) != 1 || ops[0].Kind != OpClear || ops[0].W != 30 {
		t.Errorf("full-window ClearArea should degenerate to ClearWindow, got %+v", ops)
	}
}

func TestSnapshotMemoization(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 0, 0, 120, 40, 0)
	d.MapWindow(w)
	gc := d.NewGC()
	d.DrawString(w, gc, 0, 12, "first")
	s1 := d.Snapshot(d.Root)
	s2 := d.Snapshot(d.Root)
	if s1 != s2 {
		t.Fatal("repeated snapshot differs")
	}
	if !strings.Contains(s1, "first") {
		t.Fatalf("snapshot missing string: %q", s1)
	}
	// Any draw invalidates the memo.
	d.DrawString(w, gc, 0, 25, "second")
	s3 := d.Snapshot(d.Root)
	if !strings.Contains(s3, "second") {
		t.Errorf("snapshot not invalidated by draw: %q", s3)
	}
	// So does a window-tree mutation.
	d.UnmapWindow(w)
	s4 := d.Snapshot(d.Root)
	if strings.Contains(s4, "second") {
		t.Errorf("snapshot not invalidated by unmap: %q", s4)
	}
	// And a background change.
	d.MapWindow(w)
	before := d.Snapshot(d.Root)
	d.SetWindowBackground(w, Pixel{R: 1, G: 2, B: 3})
	_ = before
	if d.snapGen == d.gen {
		t.Error("SetWindowBackground did not bump the generation")
	}
}

func TestRenderImageClipsToWindow(t *testing.T) {
	d := NewTestDisplay()
	w := mustWindow(t, d, d.Root, 10, 10, 20, 20, 0)
	d.MapWindow(w)
	gc := d.NewGC()
	gc.Foreground = Pixel{R: 255}
	// Fill overhangs the window on all sides.
	d.FillRectangle(w, gc, -5, -5, 40, 40)
	img := d.RenderImage(d.Root)
	if got := img.RGBAAt(15, 15); got.R != 255 {
		t.Errorf("inside pixel = %v, want red", got)
	}
	// x=35 is 25 in window coords, outside the 20-wide window: the
	// overhanging fill must not have painted there.
	if got := img.RGBAAt(35, 35); got.R == 255 && got.G == 0 {
		t.Errorf("overhanging fill painted outside the window: %v", got)
	}
}
