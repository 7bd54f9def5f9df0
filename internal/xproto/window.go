package xproto

import "fmt"

// WindowID identifies a window within one display. ID 0 is "None"; the
// root window always has ID 1.
type WindowID uint32

// None is the null window id.
const None WindowID = 0

// Window is a server-side window record.
type Window struct {
	ID       WindowID
	Parent   WindowID
	Children []WindowID

	// Geometry relative to the parent window.
	X, Y          int
	Width, Height int
	BorderWidth   int

	Mapped     bool
	InputOnly  bool
	Background Pixel
	EventMask  EventMask

	// OverrideRedirect marks popup windows that bypass window-manager
	// placement (menus, tooltips) — Xt sets it for shells popped up
	// with grabs.
	OverrideRedirect bool

	// ops is the window's display list: the drawing requests since it
	// was last cleared, which Snapshot and RenderImage replay. Only the
	// drawing requests write it.
	ops []DrawOp

	display *Display
}

func (w *Window) String() string {
	return fmt.Sprintf("window %d %dx%d+%d+%d", w.ID, w.Width, w.Height, w.X, w.Y)
}

// RootCoords translates window-relative coordinates to root coordinates.
func (w *Window) RootCoords(x, y int) (int, int) {
	for w != nil && w.Parent != None {
		x += w.X + w.BorderWidth
		y += w.Y + w.BorderWidth
		w = w.display.windows[w.Parent]
	}
	return x, y
}

// Viewable reports whether the window and all its ancestors are mapped.
func (w *Window) Viewable() bool {
	for w != nil {
		if !w.Mapped {
			return false
		}
		if w.Parent == None {
			return true
		}
		w = w.display.windows[w.Parent]
	}
	return false
}

// viewableRect returns the part of the window that is on screen, in
// the window's own coordinates: its rectangle clipped by the interior
// of every ancestor, the root (the screen) included. That is the
// region an X server exposes. It is empty when the window or an
// ancestor is unmapped, or when no part of it lies on screen.
// Occlusion by stacked siblings is not subtracted.
func (w *Window) viewableRect() Rect {
	r := Rect{W: w.Width, H: w.Height}
	x, y := 0, 0 // the current ancestor's interior origin, in w's coordinates
	for w.Parent != None {
		if !w.Mapped {
			return Rect{}
		}
		x -= w.X + w.BorderWidth
		y -= w.Y + w.BorderWidth
		if w = w.display.windows[w.Parent]; w == nil {
			return Rect{}
		}
		if r = r.Intersect(Rect{X: x, Y: y, W: w.Width, H: w.Height}); r.Empty() {
			return Rect{}
		}
	}
	if !w.Mapped {
		return Rect{}
	}
	return r
}

// CreateWindow creates a child of parent with the given geometry. The
// window starts unmapped with no event mask, as in the X protocol.
func (d *Display) CreateWindow(parent WindowID, x, y, width, height, borderWidth int) (WindowID, error) {
	p, ok := d.windows[parent]
	if !ok {
		return None, fmt.Errorf("xproto: bad parent window %d", parent)
	}
	if width <= 0 {
		width = 1
	}
	if height <= 0 {
		height = 1
	}
	d.request("CreateWindow")
	d.gen++
	id := d.nextID
	d.nextID++
	w := &Window{
		ID:          id,
		Parent:      parent,
		X:           x,
		Y:           y,
		Width:       width,
		Height:      height,
		BorderWidth: borderWidth,
		Background:  d.WhitePixel(),
		display:     d,
	}
	d.windows[id] = w
	p.Children = append(p.Children, id)
	return id, nil
}

// DestroyWindow destroys a window and all its descendants, delivering
// DestroyNotify to windows selecting StructureNotify.
func (d *Display) DestroyWindow(id WindowID) {
	w, ok := d.windows[id]
	if !ok || id == d.Root {
		return
	}
	d.request("DestroyWindow")
	d.gen++
	for _, c := range append([]WindowID(nil), w.Children...) {
		d.DestroyWindow(c)
	}
	if w.EventMask&StructureNotifyMask != 0 {
		d.enqueue(Event{Type: DestroyNotify, Window: id})
	}
	if p, ok := d.windows[w.Parent]; ok {
		for i, c := range p.Children {
			if c == id {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
	}
	if d.focus == id {
		d.focus = None
	}
	if d.implicitGrab == id {
		d.implicitGrab = None
	}
	if d.grabWindow == id {
		d.grabWindow = None
	}
	delete(d.windows, id)
	delete(d.damage, id)
	d.recomputePointerWindow()
}

// Lookup returns the window record for id.
func (d *Display) Lookup(id WindowID) (*Window, bool) {
	w, ok := d.windows[id]
	return w, ok
}

// MapWindow maps a window and generates MapNotify plus an initial
// Expose, as a real server does for viewable windows.
func (d *Display) MapWindow(id WindowID) {
	w, ok := d.windows[id]
	if !ok || w.Mapped {
		return
	}
	d.request("MapWindow")
	w.Mapped = true
	d.gen++
	if w.EventMask&StructureNotifyMask != 0 {
		d.enqueue(Event{Type: MapNotify, Window: id})
	}
	if w.Viewable() {
		d.exposeTree(w)
	}
	d.recomputePointerWindow()
}

// exposeTree discards the contents of w and of its mapped descendants
// and damages them whole, as a server without backing store does for
// windows it maps or reconfigures: on its Expose, each window repaints
// what is then on screen, and its display list holds only that.
// Windows that do not select exposure are never repainted, so they
// keep their contents.
func (d *Display) exposeTree(w *Window) {
	if w.EventMask&ExposureMask != 0 {
		w.ops = w.ops[:0]
		d.addDamage(w, Rect{W: w.Width, H: w.Height})
	}
	for _, c := range w.Children {
		cw := d.windows[c]
		if cw != nil && cw.Mapped {
			d.exposeTree(cw)
		}
	}
}

// UnmapWindow unmaps a window, generating UnmapNotify.
func (d *Display) UnmapWindow(id WindowID) {
	w, ok := d.windows[id]
	if !ok || !w.Mapped {
		return
	}
	d.request("UnmapWindow")
	w.Mapped = false
	d.gen++
	if w.EventMask&StructureNotifyMask != 0 {
		d.enqueue(Event{Type: UnmapNotify, Window: id})
	}
	d.recomputePointerWindow()
}

// ConfigureWindow moves/resizes a window and generates ConfigureNotify.
// A viewable window that moves or changes size is exposed together
// with its mapped descendants, as a server does for a window whose
// contents it discards; the flush keeps only what is then on screen.
// A non-positive width or height keeps the current one.
func (d *Display) ConfigureWindow(id WindowID, x, y, width, height int) {
	w, ok := d.windows[id]
	if !ok {
		return
	}
	if width <= 0 {
		width = w.Width
	}
	if height <= 0 {
		height = w.Height
	}
	changed := x != w.X || y != w.Y || width != w.Width || height != w.Height
	w.X, w.Y, w.Width, w.Height = x, y, width, height
	d.gen++
	if w.EventMask&StructureNotifyMask != 0 {
		d.enqueue(Event{Type: ConfigureNotify, Window: id, X: x, Y: y, Width: w.Width, Height: w.Height})
	}
	if changed && w.Viewable() {
		d.exposeTree(w)
	}
	d.recomputePointerWindow()
}

// SelectInput sets the window's event mask.
func (d *Display) SelectInput(id WindowID, mask EventMask) {
	if w, ok := d.windows[id]; ok {
		w.EventMask = mask
	}
}

// SetWindowBackground sets the background pixel used by ClearWindow.
func (d *Display) SetWindowBackground(id WindowID, p Pixel) {
	if w, ok := d.windows[id]; ok {
		w.Background = p
		d.gen++
	}
}

// windowAt returns the deepest viewable window containing the root
// coordinate, walking front-to-back through the children (later
// children stack above earlier ones, as in X).
func (d *Display) windowAt(rootX, rootY int) WindowID {
	root := d.windows[d.Root]
	return d.descend(root, rootX, rootY)
}

func (d *Display) descend(w *Window, x, y int) WindowID {
	for i := len(w.Children) - 1; i >= 0; i-- {
		c := d.windows[w.Children[i]]
		if c == nil || !c.Mapped {
			continue
		}
		cx := x - c.X - c.BorderWidth
		cy := y - c.Y - c.BorderWidth
		if cx >= 0 && cy >= 0 && cx < c.Width && cy < c.Height {
			return d.descend(c, cx, cy)
		}
	}
	return w.ID
}
