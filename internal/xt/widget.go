package xt

import (
	"fmt"

	"wafe/internal/xproto"
)

// Widget is a widget instance. All state lives in the typed resource
// table; geometry accessors read the core geometry resources.
type Widget struct {
	Name   string
	Class  *Class
	Parent *Widget

	app      *App
	display  *xproto.Display
	window   xproto.WindowID
	children []*Widget

	managed        bool
	realized       bool
	beingDestroyed bool

	// layout is the compiled resource list of the widget's class under
	// its parent's class; values holds the converted value of each of
	// its slots, and explicit marks the slots set by creation args,
	// SetValues or PositionShell rather than defaulted. extra stores
	// values of names the layout does not declare, by quark
	// (SetResourceValue accepts any name).
	layout   *resourceLayout
	values   []any
	explicit []bool
	extra    []quarkValue

	// pathQN/pathQC are the interned name/class paths from the
	// application down ("wafe", "form", "label1"), computed once at
	// creation — children extend their parent's slices. slist is the
	// cached Xrm search list for that path; it carries the database
	// generation it was built at and every lookup revalidates it, so
	// mergeResources invalidates it implicitly.
	pathQN, pathQC []Quark
	slist          *SearchList

	// Popup state.
	poppedUp bool
	grabKind GrabKind

	// clip, while hasClip, is the damage rect the current partial
	// redraw is limited to; Redisplay procs consult it through
	// Clip/ClipIntersects to skip draws outside the damaged area.
	clip    xproto.Rect
	hasClip bool

	// Private per-class state (widget implementations stash scroll
	// offsets, edit buffers etc. here).
	Private any
}

// App returns the owning application context.
func (w *Widget) App() *App { return w.app }

// Display returns the widget's display.
func (w *Widget) Display() *xproto.Display { return w.display }

// Window returns the widget's window id (0 before realization).
func (w *Widget) Window() xproto.WindowID { return w.window }

// Children returns the widget's children (composite widgets).
func (w *Widget) Children() []*Widget { return append([]*Widget(nil), w.children...) }

// IsRealized reports whether the widget has a window.
func (w *Widget) IsRealized() bool { return w.realized }

// IsManaged reports whether the widget is managed by its parent.
func (w *Widget) IsManaged() bool { return w.managed }

// CreateWidget creates a widget instance (XtCreateWidget /
// XtCreateManagedWidget when managed is true). args are resource
// name→string value pairs applied at creation time with the highest
// precedence, exactly as the paper's widget-creation commands pass
// attribute-value pairs.
func (app *App) CreateWidget(name string, class *Class, parent *Widget, args map[string]string, managed bool) (*Widget, error) {
	if name == "" {
		return nil, fmt.Errorf("xt: widget name must not be empty")
	}
	if _, exists := app.widgets[name]; exists {
		return nil, fmt.Errorf("xt: widget %q already exists", name)
	}
	if parent == nil && !class.Shell {
		return nil, fmt.Errorf("xt: non-shell widget %q needs a parent", name)
	}
	if parent != nil && !parent.Class.Composite {
		return nil, fmt.Errorf("xt: parent %q (%s) is not a composite widget", parent.Name, parent.Class.Name)
	}
	lay := class.layoutFor(parent)
	w := &Widget{
		Name:     name,
		Class:    class,
		Parent:   parent,
		app:      app,
		layout:   lay,
		values:   make([]any, len(lay.slots)),
		explicit: make([]bool, len(lay.slots)),
	}
	if parent != nil {
		w.display = parent.display
	} else {
		w.display = app.display
	}
	// The quarked naming paths extend the parent's cached paths (both
	// in one allocation); the search list for them is computed once
	// (usually a cache hit inside the database) and then serves every
	// resource below.
	var pn, pc []Quark
	if parent != nil {
		pn, pc = parent.pathQN, parent.pathQC
	} else {
		pn, pc = []Quark{StringToQuark(app.Name)}, []Quark{StringToQuark(app.ClassName)}
	}
	n := len(pn) + 1
	paths := make([]Quark, 2*n)
	copy(paths, pn)
	paths[n-1] = StringToQuark(name)
	copy(paths[n:], pc)
	paths[2*n-1] = class.nameQuark()
	w.pathQN, w.pathQC = paths[:n:n], paths[n:]
	w.slist = app.DB.SearchListFor(w.pathQN, w.pathQC)
	// Every slot starts from args > Xrm database > default. The
	// database is read for all slots under one lock; conversion runs
	// afterwards, in slot order (fontList must convert before
	// labelString), because converters call back into the app.
	src := app.slotSources(len(lay.slots))
	app.DB.searchSlots(w.slist, lay.slots, src)
	unknown := ""
	for aname, v := range args {
		i, ok := lay.index[aname]
		if !ok {
			unknown = aname
			continue
		}
		src[i] = slotSource{value: v, found: true}
		w.explicit[i] = true
	}
	defaults := app.slotDefaults(lay)
	for i := range lay.slots {
		s := &lay.slots[i]
		if !src[i].found {
			if v := defaults[i]; v != nil {
				w.values[i] = v
				continue
			}
			src[i].value = s.Default
		}
		val, err := app.convertSlot(w, s, src[i].value)
		if err != nil {
			return nil, fmt.Errorf("xt: widget %q resource %q: %v", name, s.Name, err)
		}
		if !src[i].found && s.shareDefault {
			defaults[i] = val
		}
		w.values[i] = val
	}
	// Unknown creation args are an error — they indicate a typo in the
	// Wafe script.
	if unknown != "" {
		return nil, fmt.Errorf("xt: widget class %s has no resource %q", class.Name, unknown)
	}
	// Default translations: one parsed table per class and app, shared
	// by every instance (action and accelerators install copies).
	if tt := w.translations(); tt == nil && class.DefaultTranslations != "" {
		parsed, err := app.classTranslations(class)
		if err != nil {
			return nil, fmt.Errorf("xt: class %s default translations: %v", class.Name, err)
		}
		w.setResource(QTranslations, parsed)
	}
	if parent != nil {
		parent.children = append(parent.children, w)
	}
	app.widgets[name] = w
	// Initialize methods run super-to-sub.
	for _, k := range class.chain() {
		if k.Initialize != nil {
			k.Initialize(w)
		}
	}
	if managed && parent != nil {
		w.Manage()
	}
	return w, nil
}

func zeroFor(typeName string) any {
	switch typeName {
	case TString, TCursor, TScreen, TColormap, TJustify, TOrientation, TShapeStyle:
		return ""
	case TInt, TDimension, TPosition, TCardinal:
		return 0
	case TBoolean:
		return false
	case TFloat:
		return 0.0
	case TPixel:
		return xproto.Pixel{}
	case TFont:
		return xproto.LoadFont("fixed")
	case TCallback:
		return CallbackList(nil)
	case TTranslations, TAccelerators:
		return (*Translations)(nil)
	case TPixmap, TBitmap:
		return (*xproto.Pixmap)(nil)
	case TWidget:
		return (*Widget)(nil)
	case TStringList:
		return []string{}
	default:
		return ""
	}
}

// SetDisplay rebinds an unrealized shell to another display — the
// multi-display path ("applicationShell top2 dec4:0" maps its children
// to the specified display).
func (w *Widget) SetDisplay(d *xproto.Display) error {
	if w.realized {
		return fmt.Errorf("xt: cannot move realized widget %q to another display", w.Name)
	}
	if !w.Class.Shell {
		return fmt.Errorf("xt: only shells can select a display (widget %q)", w.Name)
	}
	w.display = d
	var move func(x *Widget)
	move = func(x *Widget) {
		x.display = d
		for _, c := range x.children {
			move(c)
		}
	}
	move(w)
	return nil
}

// --- typed accessors ------------------------------------------------------

// quarkValue is a value stored under a name the widget's layout does
// not declare.
type quarkValue struct {
	q Quark
	v any
}

// Get returns the raw typed value of the resource named q.
func (w *Widget) Get(q Quark) (any, bool) {
	if i := w.layout.slot(q); i >= 0 {
		return w.values[i], true
	}
	for _, e := range w.extra {
		if e.q == q {
			return e.v, true
		}
	}
	return nil, false
}

func (w *Widget) setResource(q Quark, v any) {
	if i := w.layout.slot(q); i >= 0 {
		w.values[i] = v
		return
	}
	for i := range w.extra {
		if w.extra[i].q == q {
			w.extra[i].v = v
			return
		}
	}
	w.extra = append(w.extra, quarkValue{q, v})
}

// setExplicit stores v as an explicitly set value, one later defaults
// do not override.
func (w *Widget) setExplicit(q Quark, v any) {
	w.setResource(q, v)
	if i := w.layout.slot(q); i >= 0 {
		w.explicit[i] = true
	}
}

// Int returns an integer resource (0 when absent).
func (w *Widget) Int(q Quark) int {
	if v, ok := w.Get(q); ok {
		if n, ok := v.(int); ok {
			return n
		}
	}
	return 0
}

// Bool returns a boolean resource.
func (w *Widget) Bool(q Quark) bool {
	if v, ok := w.Get(q); ok {
		if b, ok := v.(bool); ok {
			return b
		}
	}
	return false
}

// Str returns a string resource.
func (w *Widget) Str(q Quark) string {
	if v, ok := w.Get(q); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return ""
}

// PixelRes returns a colour resource.
func (w *Widget) PixelRes(q Quark) xproto.Pixel {
	if v, ok := w.Get(q); ok {
		if p, ok := v.(xproto.Pixel); ok {
			return p
		}
	}
	return xproto.Pixel{}
}

// FontRes returns a font resource (never nil).
func (w *Widget) FontRes(q Quark) *xproto.Font {
	if v, ok := w.Get(q); ok {
		if f, ok := v.(*xproto.Font); ok && f != nil {
			return f
		}
	}
	return xproto.LoadFont("fixed")
}

// StringList returns a string-list resource.
func (w *Widget) StringList(q Quark) []string {
	if v, ok := w.Get(q); ok {
		if l, ok := v.([]string); ok {
			return l
		}
	}
	return nil
}

func (w *Widget) translations() *Translations {
	if v, ok := w.Get(QTranslations); ok {
		if tt, ok := v.(*Translations); ok {
			return tt
		}
	}
	return nil
}

// Explicit reports whether the resource was set explicitly (creation
// args or SetValues) rather than defaulted.
func (w *Widget) Explicit(q Quark) bool {
	i := w.layout.slot(q)
	return i >= 0 && w.explicit[i]
}

// SetResourceValue stores a typed resource value directly, bypassing
// conversion — for widget-class implementations updating their own
// state (Toggle's "state", Scrollbar's thumb, ...).
func (w *Widget) SetResourceValue(q Quark, v any) { w.setResource(q, v) }

// RequestResize asks the parent to give the widget a new preferred
// size (XtMakeResizeRequest): the geometry is updated and a realized
// parent relaid out; under an unrealized parent the request is simply
// granted. A request for the current size is granted at once, without
// asking the parent, as XtMakeGeometryRequest answers XtGeometryYes.
func (w *Widget) RequestResize(width, height int) {
	width, height = maxInt(width, 1), maxInt(height, 1)
	if width == w.Int(QWidth) && height == w.Int(QHeight) {
		return
	}
	w.setResource(QWidth, width)
	w.setResource(QHeight, height)
	w.applyGeometry()
	w.relayoutParent()
}

// IsSensitive reports whether the widget and all ancestors are
// sensitive; insensitive widgets receive no input events.
func (w *Widget) IsSensitive() bool {
	for x := w; x != nil; x = x.Parent {
		if !x.Bool(QSensitive) {
			return false
		}
	}
	return true
}

// --- SetValues / GetValue --------------------------------------------------

// SetValues applies resources given as name/value pairs, in order, as
// XtSetValues takes an ArgList (the sV command). Every value is
// converted before any is stored, so a call that fails changes
// nothing. The class SetValues methods then run, and geometry or
// redisplay updates follow, as XtSetValues specifies.
func (w *Widget) SetValues(args ...string) error {
	if len(args)%2 != 0 {
		return fmt.Errorf("xt: widget %q resource %q: missing value", w.Name, args[len(args)-1])
	}
	type setArg struct {
		slot  int
		value any
	}
	var buf [4]setArg
	conv := buf[:0]
	for k := 0; k < len(args); k += 2 {
		name := args[k]
		i, ok := w.layout.index[name]
		if !ok {
			return fmt.Errorf("xt: widget %q (class %s) has no resource %q", w.Name, w.Class.Name, name)
		}
		s := &w.layout.slots[i]
		v, err := w.app.ConvertQ(w, s.typeQ, s.Type, args[k+1])
		if err != nil {
			return fmt.Errorf("xt: widget %q resource %q: %v", w.Name, name, err)
		}
		conv = append(conv, setArg{i, v})
	}
	// Only a class SetValues method reads the names of the changed
	// resources; the set comes emptied from the app's pool and goes
	// back to it.
	var changed map[string]bool
	if w.Class.hasSetValues() {
		changed = w.app.takeChangedSet()
		defer w.app.putChangedSet(changed)
	}
	anyChanged, geomChanged, transChanged := false, false, false
	for k, a := range conv {
		w.explicit[a.slot] = true
		// As in XtSetValues, setting a resource to its current value
		// does not count as a change: the class set_values procedures
		// report "no redisplay needed" and the widget is left alone.
		// Only plain comparable values can be checked; anything else
		// (callback lists, pixmaps) conservatively counts as changed.
		if scalarResourceEqual(w.values[a.slot], a.value) {
			continue
		}
		w.values[a.slot] = a.value
		anyChanged = true
		name := args[2*k]
		switch name {
		case "x", "y", "width", "height", "borderWidth":
			geomChanged = true
		case "translations":
			transChanged = true
		}
		if changed != nil {
			changed[name] = true
		}
	}
	if !anyChanged {
		return nil
	}
	if changed != nil {
		for _, k := range w.Class.chain() {
			if k.SetValues != nil {
				k.SetValues(w, changed)
			}
		}
	}
	if geomChanged {
		w.applyGeometry()
		w.relayoutParent()
	}
	if transChanged {
		w.updateInputMask()
	}
	// As XtSetValues asks for redisplay with XClearArea, the widget
	// damages its window; the repaint is the coalesced Expose the event
	// loop dispatches when it settles the screen.
	w.Damage(xproto.Rect{})
	return nil
}

// hasSetValues reports whether a class of c's chain has a SetValues
// method.
func (c *Class) hasSetValues() bool {
	for _, k := range c.chain() {
		if k.SetValues != nil {
			return true
		}
	}
	return false
}

// takeChangedSet returns an empty set of resource names for SetValues.
func (app *App) takeChangedSet() map[string]bool {
	if n := len(app.changedSets); n > 0 {
		m := app.changedSets[n-1]
		app.changedSets = app.changedSets[:n-1]
		return m
	}
	return make(map[string]bool)
}

// putChangedSet empties m and keeps it for the next SetValues call.
func (app *App) putChangedSet(m map[string]bool) {
	clear(m)
	app.changedSets = append(app.changedSets, m)
}

// scalarResourceEqual reports whether two converted resource values
// are the same plain scalar. Non-scalar values (callback lists,
// pixmaps, fonts) never compare equal, so SetValues treats them as
// changed, as before.
func scalarResourceEqual(a, b any) bool {
	switch av := a.(type) {
	case string:
		bv, ok := b.(string)
		return ok && av == bv
	case int:
		bv, ok := b.(int)
		return ok && av == bv
	case bool:
		bv, ok := b.(bool)
		return ok && av == bv
	case float64:
		bv, ok := b.(float64)
		return ok && av == bv
	case xproto.Pixel:
		bv, ok := b.(xproto.Pixel)
		return ok && av == bv
	}
	return false
}

// GetValue returns a resource value formatted as a string (the gV
// command; Wafe supports the reverse direction even for callbacks).
func (w *Widget) GetValue(name string) (string, error) {
	i, ok := w.layout.index[name]
	if !ok {
		return "", fmt.Errorf("xt: widget %q (class %s) has no resource %q", w.Name, w.Class.Name, name)
	}
	v := w.values[i]
	if v == nil {
		return "", nil
	}
	return w.app.Format(w.layout.slots[i].Type, v), nil
}

// ResourceNames returns the declared resource names in class order,
// constraint resources last.
func (w *Widget) ResourceNames() []string {
	slots := w.Class.layoutFor(w.Parent).slots
	out := make([]string, len(slots))
	for i := range slots {
		out[i] = slots[i].Name
	}
	return out
}

// --- geometry ---------------------------------------------------------------

func (w *Widget) preferredSize() (int, int) {
	if w.Explicit(QWidth) && w.Explicit(QHeight) {
		return maxInt(w.Int(QWidth), 1), maxInt(w.Int(QHeight), 1)
	}
	for k := w.Class; k != nil; k = k.Super {
		if k.PreferredSize != nil {
			pw, ph := k.PreferredSize(w)
			if w.Explicit(QWidth) {
				pw = w.Int(QWidth)
			}
			if w.Explicit(QHeight) {
				ph = w.Int(QHeight)
			}
			return maxInt(pw, 1), maxInt(ph, 1)
		}
	}
	return maxInt(w.Int(QWidth), 1), maxInt(w.Int(QHeight), 1)
}

// setGeometry updates the core geometry resources and the server
// window, then lets the class react. Like XtConfigureWidget it
// returns immediately when the new geometry equals the old, without
// reconfiguring the window or invoking the class resize procedure.
func (w *Widget) setGeometry(x, y, width, height int) {
	width, height = maxInt(width, 1), maxInt(height, 1)
	if w.Int(QX) == x && w.Int(QY) == y && w.Int(QWidth) == width && w.Int(QHeight) == height {
		return
	}
	w.setResource(QX, x)
	w.setResource(QY, y)
	w.setResource(QWidth, width)
	w.setResource(QHeight, height)
	w.applyGeometry()
}

func (w *Widget) applyGeometry() {
	if w.realized {
		w.display.ConfigureWindow(w.window, w.Int(QX), w.Int(QY), w.Int(QWidth), w.Int(QHeight))
	}
	for k := w.Class; k != nil; k = k.Super {
		if k.Resize != nil {
			k.Resize(w)
			break
		}
	}
}

// relayout invokes the composite layout method.
func (w *Widget) relayout() {
	for k := w.Class; k != nil; k = k.Super {
		if k.ChangeManaged != nil {
			k.ChangeManaged(w)
			return
		}
	}
}

// relayoutParent hands a change in w's managed set or geometry to the
// parent's layout. As in Xt, only a realized parent that is not being
// destroyed lays out again; an unrealized one is laid out once, at
// realize, and a dying one not at all.
func (w *Widget) relayoutParent() {
	if p := w.Parent; p != nil && p.realized && !p.beingDestroyed {
		p.relayout()
	}
}

// callChangeManaged lays out the unrealized subtree under w bottom up,
// once per composite with managed children, as Xt's CallChangeManaged
// does before XtRealizeWidget creates windows: every parent sizes
// itself from settled children. Popup shells lay out when popped up.
func (w *Widget) callChangeManaged() {
	managed := false
	for _, c := range w.children {
		if c.Class.Shell {
			continue
		}
		c.callChangeManaged()
		managed = managed || c.managed
	}
	if managed {
		w.relayout()
	}
}

// ManagedChildren returns the managed, non-shell children — the set a
// composite lays out.
func (w *Widget) ManagedChildren() []*Widget { return w.managedChildren() }

// PreferredSize returns the widget's desired size (query-geometry).
func (w *Widget) PreferredSize() (int, int) { return w.preferredSize() }

// SetChildGeometry is used by composite layout code to position a
// child (the geometry-manager grant path).
func (w *Widget) SetChildGeometry(x, y, width, height int) {
	w.setGeometry(x, y, width, height)
}

func (w *Widget) managedChildren() []*Widget {
	out := make([]*Widget, 0, len(w.children))
	for _, c := range w.children {
		if c.managed && !c.Class.Shell {
			out = append(out, c)
		}
	}
	return out
}

// Manage adds the widget to its parent's managed set (XtManageChild).
// Managing a child of an already-realized parent lays the parent out,
// then lays out and realizes the child's subtree, as Xt does; under an
// unrealized parent layout waits for realize.
func (w *Widget) Manage() {
	if w.managed || w.Parent == nil {
		return
	}
	w.managed = true
	w.relayoutParent()
	if !w.realized && w.Parent.realized && !w.Class.Shell {
		w.callChangeManaged()
		w.realizeTree()
	}
	if w.realized && w.Bool(QMappedWhenManaged) {
		w.display.MapWindow(w.window)
	}
}

// Unmanage removes the widget from layout (XtUnmanageChild).
func (w *Widget) Unmanage() {
	if !w.managed {
		return
	}
	w.managed = false
	if w.realized {
		w.display.UnmapWindow(w.window)
	}
	w.relayoutParent()
}

// Realize creates windows for the widget and its descendants
// (XtRealizeWidget). The subtree is laid out first, bottom up, so
// windows are created with final geometry. A widget under an
// unrealized parent is realized together with that parent.
func (w *Widget) Realize() {
	if w.realized {
		return
	}
	if p := w.Parent; p != nil && !p.realized && !w.Class.Shell {
		p.Realize()
		return
	}
	w.callChangeManaged()
	w.realizeTree()
	if w.Class.Shell && !w.poppedUp {
		// Top-level shells map on realize; popup shells wait for Popup.
		if w.Class.IsSubclassOf(TopLevelShellClass) || w.Class == ApplicationShellClass {
			w.display.MapWindow(w.window)
		}
	}
}

func (w *Widget) realizeTree() {
	if !w.realized {
		parentWin := w.display.Root
		if w.Parent != nil && !w.Class.Shell {
			parentWin = w.Parent.window
		}
		win, err := w.display.CreateWindow(parentWin, w.Int(QX), w.Int(QY), w.Int(QWidth), w.Int(QHeight), w.Int(QBorderWidth))
		if err != nil {
			panic(fmt.Sprintf("xt: realize %s: %v", w.Name, err))
		}
		w.window = win
		w.realized = true
		w.app.byWindow[windowKey{w.display, win}] = w
		w.display.SetWindowBackground(win, w.PixelRes(QBackground))
		w.updateInputMask()
		// Class Realize methods (sub-most wins).
		for k := w.Class; k != nil; k = k.Super {
			if k.Realize != nil {
				k.Realize(w)
				break
			}
		}
	}
	for _, c := range w.children {
		if c.Class.Shell {
			continue // popup children realize on Popup
		}
		c.realizeTree()
		if c.managed && c.Bool(QMappedWhenManaged) {
			w.display.MapWindow(c.window)
		}
	}
}

// UpdateInputMask re-derives the window event mask after the
// translation table changed through SetResourceValue.
func (w *Widget) UpdateInputMask() { w.updateInputMask() }

// updateInputMask derives the window event mask from the translation
// table plus the structural events Xt always needs.
func (w *Widget) updateInputMask() {
	if !w.realized {
		return
	}
	mask := xproto.ExposureMask | xproto.StructureNotifyMask
	if tt := w.translations(); tt != nil {
		mask |= tt.EventMask()
	}
	w.display.SelectInput(w.window, mask)
}

// redraw clears and repaints the whole widget via its class Redisplay.
// Only Expose dispatch repaints; everything else damages.
func (w *Widget) redraw() {
	if !w.realized {
		return
	}
	if m := w.app.metrics.Load(); m != nil {
		m.Xt.RedrawFull.Inc()
	}
	w.hasClip = false
	w.display.ClearWindow(w.window)
	w.redisplay()
}

// redisplay runs the first Redisplay proc on the class chain.
func (w *Widget) redisplay() {
	for k := w.Class; k != nil; k = k.Super {
		if k.Redisplay != nil {
			k.Redisplay(w)
			return
		}
	}
}

// Clip returns the rectangle the current redraw is limited to: the
// damage rect during a clipped partial redraw, the full window rect
// otherwise. Redisplay procs bound their background fill by it and
// skip primitives entirely outside it.
func (w *Widget) Clip() xproto.Rect {
	if w.hasClip {
		return w.clip
	}
	return xproto.Rect{W: w.Int(QWidth), H: w.Int(QHeight)}
}

// ClipIntersects reports whether the rect touches the active clip
// region (always true outside a clipped redraw).
func (w *Widget) ClipIntersects(x, y, wd, h int) bool {
	if !w.hasClip {
		return true
	}
	return w.clip.Intersects(xproto.Rect{X: x, Y: y, W: wd, H: h})
}

// redrawRect repaints only the given rectangle of the widget: the area
// is cleared, the clip set, and the class Redisplay runs consulting
// the clip. Rects covering the whole widget — and every rect while the
// app is in full-repaint oracle mode — fall back to redraw.
func (w *Widget) redrawRect(r xproto.Rect) {
	if !w.realized {
		return
	}
	full := xproto.Rect{W: w.Int(QWidth), H: w.Int(QHeight)}
	r = r.Intersect(full)
	if r.Empty() {
		return
	}
	if w.app.fullRepaint || r.Contains(full) {
		w.redraw()
		return
	}
	if m := w.app.metrics.Load(); m != nil {
		m.Xt.RedrawClipped.Inc()
	}
	w.clip, w.hasClip = r, true
	w.display.ClearArea(w.window, r.X, r.Y, r.W, r.H)
	w.redisplay()
	w.hasClip = false
}

// Damage marks a rectangle of the widget dirty (a zero-sized rect
// means the whole widget): the rect enters the display's per-window
// damage region and comes back as a coalesced Expose when the event
// loop next settles the screen (Pump), which triggers the clipped
// redraw. Every widget update repaints this way.
func (w *Widget) Damage(r xproto.Rect) {
	if !w.realized {
		return
	}
	if r.Empty() || w.app.fullRepaint {
		r = xproto.Rect{W: w.Int(QWidth), H: w.Int(QHeight)}
	}
	w.display.DamageRect(w.window, r.X, r.Y, r.W, r.H)
}

// redrawExpose services one Expose event, using its damage rect for a
// clipped partial redraw (full repaint when the rect is empty — an
// event synthesized without geometry).
func (w *Widget) redrawExpose(ev *xproto.Event) {
	r := xproto.Rect{X: ev.X, Y: ev.Y, W: ev.Width, H: ev.Height}
	if r.Empty() {
		w.redraw()
		return
	}
	w.redrawRect(r)
}

// Destroy destroys the widget subtree (XtDestroyWidget), invoking
// destroyCallback lists, class destructors sub-to-super, and freeing
// all associated resources — the paper's "memory management" unit.
func (w *Widget) Destroy() {
	if w.beingDestroyed {
		return
	}
	w.beingDestroyed = true
	w.CallCallbacks("destroyCallback", nil)
	for _, c := range append([]*Widget(nil), w.children...) {
		c.Destroy()
	}
	for k := w.Class; k != nil; k = k.Super {
		if k.Destroy != nil {
			k.Destroy(w)
		}
	}
	if w.realized {
		delete(w.app.byWindow, windowKey{w.display, w.window})
		w.display.DestroyWindow(w.window)
	}
	if w.Parent != nil {
		for i, c := range w.Parent.children {
			if c == w {
				w.Parent.children = append(w.Parent.children[:i], w.Parent.children[i+1:]...)
				break
			}
		}
		if w.managed {
			w.managed = false
			w.relayoutParent()
		}
	}
	delete(w.app.widgets, w.Name)
	// Drop resource storage so late references fail loudly.
	w.layout, w.values, w.explicit, w.extra = destroyedLayout, nil, nil, nil
}
