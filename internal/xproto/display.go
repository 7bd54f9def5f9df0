package xproto

import (
	"fmt"
	"sync"

	"wafe/internal/obs"
)

// Display is one headless X display (server + screen). A Display is not
// safe for concurrent use; the Xt layer serializes access through its
// event loop, exactly as Xlib connections are used in Wafe.
type Display struct {
	Name          string
	Width, Height int

	Root    WindowID
	windows map[WindowID]*Window
	nextID  WindowID

	// queue is the pending-event FIFO. qhead indexes the next event to
	// deliver; once the queue drains, both reset so the backing array's
	// capacity is reused instead of reallocating on every event cycle.
	queue  []Event
	qhead  int
	serial uint64

	// gcProto is the default graphics context NewGC copies.
	gcProto GC

	// Pointer state.
	pointerX, pointerY int
	pointerWin         WindowID
	buttonState        Modifiers
	modState           Modifiers
	grabWindow         WindowID // explicit pointer grab (popup menus)
	// implicitGrab is the window that received a ButtonPress; all
	// pointer events route there until every button is released, as
	// the X server's automatic grab specifies.
	implicitGrab WindowID

	focus WindowID

	keymap *Keymap

	selections map[string]*selection

	// damage accumulates per-window dirty regions; FlushDamage converts
	// each into coalesced Expose events when the event queue drains.
	// Region values persist across cycles (Reset keeps storage) and
	// damaged lists the windows with pending damage in arrival order,
	// its capacity reused — the steady-state damage/flush cycle
	// allocates nothing.
	damage  map[WindowID]*Region
	damaged []WindowID

	// gen counts display-list and window-tree mutations; the snapshot
	// cache keys on it.
	gen uint64

	// Snapshot scratch, reused across calls: the cell grid, the output
	// buffer, and a single-slot result cache keyed by (window, gen).
	snapGrid [][]rune
	snapBuf  []byte
	snapWin  WindowID
	snapGen  uint64
	snapStr  string

	// metrics, when non-nil, counts protocol requests per operation,
	// queued events and damage, and its Trace records each request as
	// an instant span parented to whatever span is open (the
	// dispatching callback or eval). Nil (the default) keeps request
	// paths at a single pointer comparison.
	metrics *obs.Metrics

	closed bool
}

// SetMetrics attaches (or, with nil, detaches) the observability
// registry.
func (d *Display) SetMetrics(m *obs.Metrics) { d.metrics = m }

// request counts one protocol request and records its instant.
func (d *Display) request(op string) {
	if m := d.metrics; m != nil {
		m.Xproto.Requests.Inc(op)
		m.Trace.Instant("xproto", op)
	}
}

// registry of open displays, keyed by display name, emulating multiple
// X servers ("applicationShell top2 dec4:0" opens a second display).
var (
	registryMu sync.Mutex
	registry   = map[string]*Display{}
)

// OpenDisplay opens (or returns the already-open) display with the
// given name. The empty name means ":0".
func OpenDisplay(name string) *Display {
	if name == "" {
		name = ":0"
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if d, ok := registry[name]; ok && !d.closed {
		return d
	}
	d := newDisplay(name)
	registry[name] = d
	return d
}

// CloseDisplay closes the display and removes it from the registry.
func CloseDisplay(d *Display) {
	registryMu.Lock()
	defer registryMu.Unlock()
	d.closed = true
	delete(registry, d.Name)
}

func newDisplay(name string) *Display {
	d := &Display{
		Name:       name,
		Width:      1280,
		Height:     1024,
		windows:    make(map[WindowID]*Window),
		nextID:     2,
		keymap:     DefaultKeymap(),
		selections: make(map[string]*selection),
		damage:     make(map[WindowID]*Region),
	}
	d.gcProto = GC{
		Foreground: d.BlackPixel(),
		Background: d.WhitePixel(),
		Font:       LoadFont("fixed"),
		LineWidth:  1,
	}
	root := &Window{
		ID:      1,
		Parent:  None,
		Width:   d.Width,
		Height:  d.Height,
		Mapped:  true,
		display: d,
	}
	d.Root = root.ID
	d.windows[root.ID] = root
	d.pointerWin = root.ID
	return d
}

// NewTestDisplay returns a private display not entered in the registry,
// for tests that must not interfere with each other.
func NewTestDisplay() *Display { return newDisplay(":test") }

// WhitePixel and BlackPixel mirror the Xlib macros.
func (d *Display) WhitePixel() Pixel { return Pixel{R: 255, G: 255, B: 255} }

// BlackPixel returns the screen's black pixel.
func (d *Display) BlackPixel() Pixel { return Pixel{} }

func (d *Display) enqueue(ev Event) {
	if m := d.metrics; m != nil {
		m.Xproto.EventsQueued.Inc()
	}
	d.serial++
	ev.Serial = d.serial
	d.queue = append(d.queue, ev)
}

// Pending returns the number of queued events (XPending).
func (d *Display) Pending() int { return len(d.queue) - d.qhead }

// NextEvent dequeues the oldest event. ok is false when the queue is
// empty (the real call would block; the Xt layer treats empty as idle).
// Draining the queue flushes accumulated window damage first, so
// coalesced Expose events are delivered after the mutations that
// caused them — the X server's expose-compression discipline.
func (d *Display) NextEvent() (Event, bool) {
	if d.qhead >= len(d.queue) {
		if len(d.queue) > 0 {
			d.queue = d.queue[:0]
			d.qhead = 0
		}
		d.FlushDamage()
		if len(d.queue) == 0 {
			return Event{}, false
		}
	}
	ev := d.queue[d.qhead]
	d.qhead++
	if d.qhead == len(d.queue) {
		d.queue = d.queue[:0]
		d.qhead = 0
	}
	return ev, true
}

// SetInputFocus assigns keyboard focus, generating FocusOut/FocusIn.
func (d *Display) SetInputFocus(id WindowID) {
	if d.focus == id {
		return
	}
	if old, ok := d.windows[d.focus]; ok && old.EventMask&FocusChangeMask != 0 {
		d.enqueue(Event{Type: FocusOut, Window: d.focus})
	}
	d.focus = id
	if nw, ok := d.windows[id]; ok && nw.EventMask&FocusChangeMask != 0 {
		d.enqueue(Event{Type: FocusIn, Window: id})
	}
}

// GrabPointer directs all pointer events to the given window until
// UngrabPointer (used by popup shells with exclusive grabs).
func (d *Display) GrabPointer(id WindowID) { d.grabWindow = id }

// UngrabPointer releases the pointer grab.
func (d *Display) UngrabPointer() { d.grabWindow = None }

// GrabbedWindow returns the pointer grab window, or None.
func (d *Display) GrabbedWindow() WindowID { return d.grabWindow }

// --- event synthesis -----------------------------------------------------
//
// In a real server these states change because a human moves the mouse;
// tests and example drivers inject the hardware-level happenings and the
// display derives the proper event stream (crossing events, state
// masks, keysym lookup) exactly as a server would.

// WarpPointer moves the pointer to root coordinates, generating
// LeaveNotify/EnterNotify pairs on window crossings and MotionNotify on
// the destination window.
func (d *Display) WarpPointer(rootX, rootY int) {
	oldWin := d.pointerWin
	d.pointerX, d.pointerY = rootX, rootY
	newWin := d.windowAt(rootX, rootY)
	if oldWin != newWin {
		d.crossing(oldWin, newWin, rootX, rootY)
	}
	d.pointerWin = newWin
	// During a grab (explicit or the automatic button grab) motion is
	// reported to the grab window regardless of pointer position.
	motionWin := newWin
	if t := d.pointerTarget(); t != None {
		motionWin = t
	}
	if w, ok := d.windows[motionWin]; ok && w.EventMask&PointerMotionMask != 0 {
		x, y := d.toWindow(w, rootX, rootY)
		d.enqueue(Event{
			Type: MotionNotify, Window: motionWin,
			X: x, Y: y, XRoot: rootX, YRoot: rootY,
			State: d.buttonState | d.modState,
		})
	}
}

// crossing generates Leave on the old chain and Enter on the new chain
// (simplified: only the immediate windows, which is what Xt translation
// tables consume).
func (d *Display) crossing(oldWin, newWin WindowID, rootX, rootY int) {
	if w, ok := d.windows[oldWin]; ok && w.EventMask&LeaveWindowMask != 0 {
		x, y := d.toWindow(w, rootX, rootY)
		d.enqueue(Event{Type: LeaveNotify, Window: oldWin, X: x, Y: y, XRoot: rootX, YRoot: rootY, State: d.buttonState | d.modState})
	}
	if w, ok := d.windows[newWin]; ok && w.EventMask&EnterWindowMask != 0 {
		x, y := d.toWindow(w, rootX, rootY)
		d.enqueue(Event{Type: EnterNotify, Window: newWin, X: x, Y: y, XRoot: rootX, YRoot: rootY, State: d.buttonState | d.modState})
	}
}

func (d *Display) toWindow(w *Window, rootX, rootY int) (int, int) {
	wx, wy := w.RootCoords(0, 0)
	return rootX - wx, rootY - wy
}

func (d *Display) recomputePointerWindow() {
	newWin := d.windowAt(d.pointerX, d.pointerY)
	if newWin != d.pointerWin {
		d.crossing(d.pointerWin, newWin, d.pointerX, d.pointerY)
		d.pointerWin = newWin
	}
}

// pointerTarget decides the destination window for a pointer event,
// honouring explicit grabs, then the automatic button-press grab.
func (d *Display) pointerTarget() WindowID {
	if d.grabWindow != None {
		return d.grabWindow
	}
	if d.implicitGrab != None {
		return d.implicitGrab
	}
	return None
}

func (d *Display) pointerDeliveryWindow() WindowID {
	if t := d.pointerTarget(); t != None {
		return t
	}
	return d.pointerWin
}

// InjectButtonPress presses a mouse button at the current pointer
// position. The first press installs the automatic grab: further
// pointer events go to the pressed window until all buttons release.
func (d *Display) InjectButtonPress(button int) {
	target := d.pointerDeliveryWindow()
	w, ok := d.windows[target]
	if !ok {
		return
	}
	// Walk up until a window selects ButtonPress (simplified event
	// propagation for unselected windows).
	for w != nil && w.EventMask&ButtonPressMask == 0 && w.Parent != None {
		w = d.windows[w.Parent]
	}
	if w == nil || w.EventMask&ButtonPressMask == 0 {
		d.buttonState |= buttonMask(button)
		return
	}
	if d.grabWindow == None && d.implicitGrab == None {
		d.implicitGrab = w.ID
	}
	x, y := d.toWindow(w, d.pointerX, d.pointerY)
	d.enqueue(Event{
		Type: ButtonPress, Window: w.ID, Button: button,
		X: x, Y: y, XRoot: d.pointerX, YRoot: d.pointerY,
		State: d.buttonState | d.modState,
	})
	d.buttonState |= buttonMask(button)
}

// InjectButtonRelease releases a mouse button; releasing the last
// button ends the automatic grab.
func (d *Display) InjectButtonRelease(button int) {
	d.buttonState &^= buttonMask(button)
	target := d.pointerDeliveryWindow()
	if d.buttonState == 0 {
		d.implicitGrab = None
	}
	w, ok := d.windows[target]
	if !ok {
		return
	}
	for w != nil && w.EventMask&ButtonReleaseMask == 0 && w.Parent != None {
		w = d.windows[w.Parent]
	}
	if w == nil || w.EventMask&ButtonReleaseMask == 0 {
		return
	}
	x, y := d.toWindow(w, d.pointerX, d.pointerY)
	d.enqueue(Event{
		Type: ButtonRelease, Window: w.ID, Button: button,
		X: x, Y: y, XRoot: d.pointerX, YRoot: d.pointerY,
		State: d.buttonState | d.modState | buttonMask(button),
	})
}

func buttonMask(button int) Modifiers {
	switch button {
	case 1:
		return Button1Mask
	case 2:
		return Button2Mask
	case 3:
		return Button3Mask
	}
	return 0
}

// keyTarget returns the window keyboard events go to: the focus window
// if set, else the pointer window.
func (d *Display) keyTarget() WindowID {
	if d.focus != None {
		return d.focus
	}
	return d.pointerWin
}

// InjectKeycode presses/releases a raw keycode against the focus (or
// pointer) window. Keysym and rune are derived from the keymap with the
// current modifier state, as XLookupString would.
func (d *Display) InjectKeycode(keycode int, press bool) {
	target := d.keyTarget()
	w, ok := d.windows[target]
	if !ok {
		return
	}
	mask := KeyPressMask
	typ := KeyPress
	if !press {
		mask = KeyReleaseMask
		typ = KeyRelease
	}
	for w != nil && w.EventMask&mask == 0 && w.Parent != None {
		w = d.windows[w.Parent]
	}
	sym, r := d.keymap.Lookup(keycode, d.modState&ShiftMask != 0)
	// Track modifier keys regardless of delivery.
	defer func() {
		if m := modifierFor(sym); m != 0 {
			if press {
				d.modState |= m
			} else {
				d.modState &^= m
			}
		}
	}()
	if w == nil || w.EventMask&mask == 0 {
		return
	}
	x, y := d.toWindow(w, d.pointerX, d.pointerY)
	d.enqueue(Event{
		Type: typ, Window: w.ID,
		Keycode: keycode, Keysym: sym, Rune: r,
		X: x, Y: y, XRoot: d.pointerX, YRoot: d.pointerY,
		State: d.buttonState | d.modState,
	})
}

func modifierFor(keysym string) Modifiers {
	switch keysym {
	case "Shift_L", "Shift_R":
		return ShiftMask
	case "Control_L", "Control_R":
		return ControlMask
	case "Alt_L", "Alt_R", "Meta_L", "Meta_R":
		return Mod1Mask
	}
	return 0
}

// TypeString injects the key press/release sequence that produces the
// given text, inserting Shift transitions as needed — the convenience
// used by tests and example drivers ("if the input w! is typed...").
func (d *Display) TypeString(s string) error {
	for _, r := range s {
		strokes, ok := d.keymap.StrokesFor(r)
		if !ok {
			return fmt.Errorf("xproto: no keycode produces %q", string(r))
		}
		if strokes.Shift {
			d.InjectKeycode(d.keymap.ShiftKeycode, true)
		}
		d.InjectKeycode(strokes.Keycode, true)
		d.InjectKeycode(strokes.Keycode, false)
		if strokes.Shift {
			d.InjectKeycode(d.keymap.ShiftKeycode, false)
		}
	}
	return nil
}

// InjectExposeRect damages a rectangle of the window; a zero-sized rect
// means the whole window. The damage flows through the per-window
// region, so repeated injections coalesce into the minimal Expose set
// when the event queue drains. Requests for unknown windows or windows
// not selecting ExposureMask are dropped and counted.
func (d *Display) InjectExposeRect(id WindowID, x, y, w, h int) {
	win, ok := d.windows[id]
	if !ok || win.EventMask&ExposureMask == 0 {
		if m := d.metrics; m != nil {
			m.Xproto.ExposesDropped.Inc()
		}
		return
	}
	r := Rect{X: x, Y: y, W: w, H: h}
	if r.Empty() {
		r = Rect{W: win.Width, H: win.Height}
	}
	d.addDamage(win, r)
}

// DamageRect accumulates damage on the window, clipped to its bounds.
// The accumulated region is flushed into coalesced Expose events when
// the event queue drains (or explicitly via FlushDamage). Mask misses
// are dropped and counted, like InjectExposeRect.
func (d *Display) DamageRect(id WindowID, x, y, w, h int) {
	win, ok := d.windows[id]
	if !ok || win.EventMask&ExposureMask == 0 {
		if m := d.metrics; m != nil {
			m.Xproto.ExposesDropped.Inc()
		}
		return
	}
	d.addDamage(win, Rect{X: x, Y: y, W: w, H: h})
}

// addDamage is the internal accumulation point: clip to the window,
// count, and enter the rect into the window's region. Callers have
// already checked the event mask.
func (d *Display) addDamage(win *Window, r Rect) {
	if !win.Viewable() {
		return
	}
	r = r.Intersect(Rect{W: win.Width, H: win.Height})
	if r.Empty() {
		return
	}
	if m := d.metrics; m != nil {
		m.Xproto.DamageRects.Inc()
	}
	reg := d.damage[win.ID]
	if reg == nil {
		reg = &Region{}
		d.damage[win.ID] = reg
	}
	if reg.Len() == 0 {
		d.damaged = append(d.damaged, win.ID)
	}
	reg.Add(r)
}

// FlushDamage converts every pending damage region into Expose events,
// one per coalesced rect, in damage-arrival order. As an X server does,
// it exposes only what is on screen: each rect is clipped to the
// window's viewable rectangle when the flush runs, so damage to a
// window that became unviewable, or that lies off screen or outside
// an ancestor, delivers nothing. The number of mutations saved by
// coalescing is counted (xproto.exposes_coalesced).
func (d *Display) FlushDamage() {
	if len(d.damaged) == 0 {
		return
	}
	for i := 0; i < len(d.damaged); i++ {
		id := d.damaged[i]
		reg := d.damage[id]
		if reg == nil || reg.Len() == 0 {
			continue
		}
		if win, ok := d.windows[id]; ok && win.EventMask&ExposureMask != 0 {
			if vis := win.viewableRect(); !vis.Empty() {
				for _, r := range reg.Rects() {
					if r = r.Intersect(vis); !r.Empty() {
						d.enqueue(Event{Type: Expose, Window: id, X: r.X, Y: r.Y, Width: r.W, Height: r.H})
					}
				}
				if m := d.metrics; m != nil && reg.Added() > reg.Len() {
					m.Xproto.ExposesCoalesced.Add(int64(reg.Added() - reg.Len()))
				}
			}
		}
		reg.Reset()
	}
	d.damaged = d.damaged[:0]
}

// Pointer returns the current pointer root position and window.
func (d *Display) Pointer() (x, y int, win WindowID) {
	return d.pointerX, d.pointerY, d.pointerWin
}
