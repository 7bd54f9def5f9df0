package xproto

import (
	"fmt"
	"testing"
)

// exposeModel is a per-pixel model of what a server must expose: its
// own copy of the window tree, and the pixels damaged since the last
// flush, per window, in window coordinates.
type exposeModel struct {
	wins    []*modelWin // wins[0] is the root
	damaged map[WindowID]map[[2]int]bool
}

type modelWin struct {
	id                  WindowID
	parent              *modelWin
	kids                []*modelWin
	x, y, w, h, bw      int
	mapped, selectsExpo bool
}

// viewable reports whether pixel (px, py) of win shows on screen: win
// and every ancestor are mapped, and the pixel lies inside win, inside
// the interior of every ancestor, and inside the root.
func (m *exposeModel) viewable(win *modelWin, px, py int) bool {
	for {
		if !win.mapped || px < 0 || py < 0 || px >= win.w || py >= win.h {
			return false
		}
		if win.parent == nil {
			return true
		}
		px += win.x + win.bw
		py += win.y + win.bw
		win = win.parent
	}
}

// treeViewable reports whether win and all its ancestors are mapped.
func (m *exposeModel) treeViewable(win *modelWin) bool {
	for ; win != nil; win = win.parent {
		if !win.mapped {
			return false
		}
	}
	return true
}

// damage marks the part of r inside win's bounds, when win selects
// exposure and is viewable; damage to anything else is dropped.
func (m *exposeModel) damage(win *modelWin, r Rect) {
	if !win.selectsExpo || !m.treeViewable(win) {
		return
	}
	px := m.damaged[win.id]
	if px == nil {
		px = map[[2]int]bool{}
		m.damaged[win.id] = px
	}
	for y := max(r.Y, 0); y < min(r.Y+r.H, win.h); y++ {
		for x := max(r.X, 0); x < min(r.X+r.W, win.w); x++ {
			px[[2]int{x, y}] = true
		}
	}
}

// exposeTree damages win and its mapped descendants whole.
func (m *exposeModel) exposeTree(win *modelWin) {
	m.damage(win, Rect{W: win.w, H: win.h})
	for _, k := range win.kids {
		if k.mapped {
			m.exposeTree(k)
		}
	}
}

// check flushes the display and holds the Exposes to the model: each
// lies inside its window's viewable part, and together they cover
// every damaged pixel that is viewable now.
func (m *exposeModel) check(t *testing.T, d *Display, step int) {
	t.Helper()
	d.FlushDamage()
	byID := map[WindowID]*modelWin{}
	for _, w := range m.wins {
		byID[w.id] = w
	}
	covered := map[WindowID]map[[2]int]bool{}
	for _, ev := range drain(d) {
		if ev.Type != Expose {
			t.Fatalf("step %d: unexpected %v event", step, ev.Type)
		}
		win := byID[ev.Window]
		if win == nil || ev.Width <= 0 || ev.Height <= 0 {
			t.Fatalf("step %d: bad Expose %+v", step, ev)
		}
		if covered[win.id] == nil {
			covered[win.id] = map[[2]int]bool{}
		}
		for y := ev.Y; y < ev.Y+ev.Height; y++ {
			for x := ev.X; x < ev.X+ev.Width; x++ {
				if !m.viewable(win, x, y) {
					t.Fatalf("step %d: Expose %d,%d %dx%d of window %d covers pixel %d,%d, which is not on screen",
						step, ev.X, ev.Y, ev.Width, ev.Height, win.id, x, y)
				}
				covered[win.id][[2]int{x, y}] = true
			}
		}
	}
	for id, px := range m.damaged {
		for p := range px {
			if m.viewable(byID[id], p[0], p[1]) && !covered[id][p] {
				t.Fatalf("step %d: damaged pixel %d,%d of window %d is on screen but no Expose covers it", step, p[0], p[1], id)
			}
		}
	}
	m.damaged = map[WindowID]map[[2]int]bool{}
}

// FuzzExposeRegion builds random window trees on a 64 × 48 root, with
// borders, windows partly off screen and windows outside their
// parents, and runs map, unmap, configure, damage and flush sequences
// against a per-pixel model of exposure. Every Expose must lie inside
// its window's viewable region, and at every flush the Exposes must
// cover every damaged pixel that is then on screen.
func FuzzExposeRegion(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewTestDisplay()
		root := d.windows[d.Root]
		root.Width, root.Height = 64, 48
		m := &exposeModel{
			wins:    []*modelWin{{id: d.Root, w: 64, h: 48, mapped: true}},
			damaged: map[WindowID]map[[2]int]bool{},
		}
		i := 0
		next := func(n int) int {
			if i >= len(data) {
				return 0
			}
			i++
			return int(data[i-1]) % n
		}
		// pick returns a window other than the root, or nil.
		pick := func() *modelWin {
			if len(m.wins) < 2 {
				return nil
			}
			return m.wins[1+next(len(m.wins)-1)]
		}
		for step := 0; i < len(data); step++ {
			switch next(6) {
			case 0: // create
				if len(m.wins) >= 16 {
					continue
				}
				p := m.wins[next(len(m.wins))]
				w := &modelWin{parent: p, x: next(96) - 32, y: next(80) - 24, w: 1 + next(48), h: 1 + next(40), bw: next(3), selectsExpo: next(4) != 0}
				id, err := d.CreateWindow(p.id, w.x, w.y, w.w, w.h, w.bw)
				if err != nil {
					t.Fatal(err)
				}
				if w.selectsExpo {
					d.SelectInput(id, ExposureMask)
				}
				w.id = id
				p.kids = append(p.kids, w)
				m.wins = append(m.wins, w)
			case 1: // map
				if w := pick(); w != nil && !w.mapped {
					w.mapped = true
					d.MapWindow(w.id)
					if m.treeViewable(w) {
						m.exposeTree(w)
					}
				}
			case 2: // unmap
				if w := pick(); w != nil {
					w.mapped = false
					d.UnmapWindow(w.id)
				}
			case 3: // configure
				if w := pick(); w != nil {
					x, y, wd, ht := next(96)-32, next(80)-24, 1+next(48), 1+next(40)
					changed := x != w.x || y != w.y || wd != w.w || ht != w.h
					w.x, w.y, w.w, w.h = x, y, wd, ht
					d.ConfigureWindow(w.id, x, y, wd, ht)
					if changed && m.treeViewable(w) {
						m.exposeTree(w)
					}
				}
			case 4: // damage
				if w := pick(); w != nil {
					r := Rect{X: next(64) - 16, Y: next(56) - 16, W: next(48), H: next(40)}
					d.DamageRect(w.id, r.X, r.Y, r.W, r.H)
					if !r.Empty() {
						m.damage(w, r)
					}
				}
			case 5:
				m.check(t, d, step)
			}
		}
		m.check(t, d, -1)
	})
}

// TestViewableRectClipsToAncestorsAndScreen: a mapped window is
// exposed only where it lies inside its ancestors and the screen, and
// damage that falls wholly off screen exposes nothing.
func TestViewableRectClipsToAncestorsAndScreen(t *testing.T) {
	d := NewTestDisplay()
	a := mustWindow(t, d, d.Root, 1200, 1000, 200, 100, 2) // runs off the right and bottom
	b := mustWindow(t, d, a, -10, 5, 50, 50, 1)            // overhangs a's left edge
	for _, id := range []WindowID{a, b} {
		d.SelectInput(id, ExposureMask)
		d.MapWindow(id)
	}
	got := map[WindowID]string{}
	for _, ev := range drain(d) {
		got[ev.Window] += fmt.Sprintf("%d,%d %dx%d;", ev.X, ev.Y, ev.Width, ev.Height)
	}
	// a's interior starts at 1202,1002 on a 1280 × 1024 screen.
	if want := "0,0 78x22;"; got[a] != want {
		t.Errorf("a exposed %q, want %q", got[a], want)
	}
	// b's interior starts at -9,6 in a: x from 9, y up to 22-6.
	if want := "9,0 41x16;"; got[b] != want {
		t.Errorf("b exposed %q, want %q", got[b], want)
	}
	d.ConfigureWindow(a, 2000, 0, 200, 100) // wholly off screen
	if evs := drain(d); len(evs) != 0 {
		t.Errorf("a window moved off screen was exposed: %+v", evs)
	}
	d.DamageRect(b, 0, 0, 50, 50)
	if evs := drain(d); len(evs) != 0 {
		t.Errorf("damage off screen was exposed: %+v", evs)
	}
}
