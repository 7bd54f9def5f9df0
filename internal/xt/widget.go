package xt

import (
	"fmt"
	"strings"

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

	// resources holds converted values keyed by resource name;
	// spec maps resource name → its declaration (class chain plus
	// parent constraints).
	resources map[string]*any
	spec      map[string]*Resource
	// explicit records resources set by args or setValues (they
	// override later Xrm merges).
	explicit map[string]bool

	// pathQN/pathQC are the interned name/class paths from the
	// application down ("wafe", "form", "label1"), computed once at
	// creation — children extend their parent's slices. slist is the
	// cached Xrm search list for that path; it carries the database
	// generation it was built at and SearchResource revalidates it on
	// every use, so mergeResources invalidates it implicitly.
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

// IsPoppedUp reports whether a popup shell is currently up.
func (w *Widget) IsPoppedUp() bool { return w.poppedUp }

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
	crs := class.AllResources()
	crq := class.resCache().allQ
	var ccs []Resource
	var ccq []resourceQuarks
	if parent != nil {
		pc := parent.Class.resCache()
		ccs, ccq = pc.constraints, pc.constraintsQ
	}
	// The maps are sized up front: every declared resource gets an
	// entry, so growing them one insert at a time is pure overhead.
	w := &Widget{
		Name:      name,
		Class:     class,
		Parent:    parent,
		app:       app,
		resources: make(map[string]*any, len(crs)+len(ccs)),
		spec:      make(map[string]*Resource, len(crs)+len(ccs)),
		explicit:  make(map[string]bool, len(args)),
	}
	if parent != nil {
		w.display = parent.display
	} else {
		w.display = app.display
	}
	// The quarked naming path extends the parent's cached path; the
	// search list for it is computed once (usually a cache hit inside
	// the database) and then serves every resource below.
	if parent != nil {
		w.pathQN = append(parent.pathQN[:len(parent.pathQN):len(parent.pathQN)], StringToQuark(name))
		w.pathQC = append(parent.pathQC[:len(parent.pathQC):len(parent.pathQC)], class.nameQuark())
	} else {
		w.pathQN = []Quark{StringToQuark(app.Name), StringToQuark(name)}
		w.pathQC = []Quark{StringToQuark(app.ClassName), class.nameQuark()}
	}
	w.slist = app.DB.SearchListFor(w.pathQN, w.pathQC)
	// Merge resource specs: class chain, then parent constraint
	// resources. ordered keeps declaration order, which conversion
	// below relies on (e.g. fontList must convert before labelString).
	// Duplicate declarations keep the first position but resolve
	// through the last (sub-most constraint chain) declaration.
	type initEntry struct {
		r *Resource
		q resourceQuarks
	}
	ordered := make([]initEntry, 0, len(crs)+len(ccs))
	for i := range crs {
		r := &crs[i]
		w.spec[r.Name] = r
		ordered = append(ordered, initEntry{r, crq[i]})
	}
	for i := range ccs {
		r := &ccs[i]
		if _, dup := w.spec[r.Name]; !dup {
			ordered = append(ordered, initEntry{r, ccq[i]})
		} else {
			for j := range ordered {
				if ordered[j].r.Name == r.Name {
					ordered[j] = initEntry{r, ccq[i]}
					break
				}
			}
		}
		w.spec[r.Name] = r
	}
	// Initialize every declared resource: args > Xrm database > default.
	for i := range ordered {
		r := ordered[i].r
		src, fromArgs := args[r.Name]
		if !fromArgs {
			if v, ok := app.DB.SearchResource(w.slist, ordered[i].q.nameQ, ordered[i].q.classQ); ok {
				src = v
			} else {
				src = r.Default
			}
		}
		var val any
		if src == "" && r.Type != TString {
			val = zeroFor(r.Type)
		} else {
			v, err := app.ConvertQ(w, ordered[i].q.typeQ, r.Type, src)
			if err != nil {
				return nil, fmt.Errorf("xt: widget %q resource %q: %v", name, r.Name, err)
			}
			val = v
		}
		w.resources[r.Name] = &val
		if fromArgs {
			w.explicit[r.Name] = true
		}
	}
	// Unknown creation args are an error — they indicate a typo in the
	// Wafe script.
	for aname := range args {
		if _, ok := w.spec[aname]; !ok {
			return nil, fmt.Errorf("xt: widget class %s has no resource %q", class.Name, aname)
		}
	}
	// Default translations.
	if tt := w.translations(); tt == nil && class.DefaultTranslations != "" {
		parsed, err := ParseTranslations(defaultTranslationsFor(class))
		if err != nil {
			return nil, fmt.Errorf("xt: class %s default translations: %v", class.Name, err)
		}
		w.setResource("translations", parsed)
	}
	if parent != nil {
		parent.children = append(parent.children, w)
	}
	app.widgets[name] = w
	app.liveWidgets++
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

func defaultTranslationsFor(c *Class) string {
	for k := c; k != nil; k = k.Super {
		if k.DefaultTranslations != "" {
			return k.DefaultTranslations
		}
	}
	return ""
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

// pathNames returns the widget naming path from the application down
// ("wafe", "form", "label1"), used by Xrm matching.
func (w *Widget) pathNames() []string {
	var rev []string
	for x := w; x != nil; x = x.Parent {
		rev = append(rev, x.Name)
	}
	out := []string{w.app.Name}
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// pathClasses is the parallel class-name path.
func (w *Widget) pathClasses() []string {
	var rev []string
	for x := w; x != nil; x = x.Parent {
		rev = append(rev, x.Class.Name)
	}
	out := []string{w.app.ClassName}
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// --- typed accessors ------------------------------------------------------

// Get returns the raw typed value of a resource.
func (w *Widget) Get(name string) (any, bool) {
	p, ok := w.resources[name]
	if !ok {
		return nil, false
	}
	return *p, true
}

func (w *Widget) setResource(name string, v any) {
	if p, ok := w.resources[name]; ok {
		*p = v
		return
	}
	val := v
	w.resources[name] = &val
}

// Int returns an integer resource (0 when absent).
func (w *Widget) Int(name string) int {
	if v, ok := w.Get(name); ok {
		if n, ok := v.(int); ok {
			return n
		}
	}
	return 0
}

// Bool returns a boolean resource.
func (w *Widget) Bool(name string) bool {
	if v, ok := w.Get(name); ok {
		if b, ok := v.(bool); ok {
			return b
		}
	}
	return false
}

// Str returns a string resource.
func (w *Widget) Str(name string) string {
	if v, ok := w.Get(name); ok {
		if s, ok := v.(string); ok {
			return s
		}
	}
	return ""
}

// PixelRes returns a colour resource.
func (w *Widget) PixelRes(name string) xproto.Pixel {
	if v, ok := w.Get(name); ok {
		if p, ok := v.(xproto.Pixel); ok {
			return p
		}
	}
	return xproto.Pixel{}
}

// FontRes returns a font resource (never nil).
func (w *Widget) FontRes(name string) *xproto.Font {
	if v, ok := w.Get(name); ok {
		if f, ok := v.(*xproto.Font); ok && f != nil {
			return f
		}
	}
	return xproto.LoadFont("fixed")
}

// StringList returns a string-list resource.
func (w *Widget) StringList(name string) []string {
	if v, ok := w.Get(name); ok {
		if l, ok := v.([]string); ok {
			return l
		}
	}
	return nil
}

func (w *Widget) translations() *Translations {
	if v, ok := w.Get("translations"); ok {
		if tt, ok := v.(*Translations); ok {
			return tt
		}
	}
	return nil
}

// Explicit reports whether the resource was set explicitly (creation
// args or SetValues) rather than defaulted.
func (w *Widget) Explicit(name string) bool { return w.explicit[name] }

// SetResourceValue stores a typed resource value directly, bypassing
// conversion — for widget-class implementations updating their own
// state (Toggle's "state", Scrollbar's thumb, ...).
func (w *Widget) SetResourceValue(name string, v any) { w.setResource(name, v) }

// RequestResize asks the parent to give the widget a new preferred
// size (XtMakeResizeRequest): the geometry is updated and a realized
// parent relaid out; under an unrealized parent the request is simply
// granted.
func (w *Widget) RequestResize(width, height int) {
	w.setResource("width", maxInt(width, 1))
	w.setResource("height", maxInt(height, 1))
	w.applyGeometry()
	w.relayoutParent()
}

// IsSensitive reports whether the widget and all ancestors are
// sensitive; insensitive widgets receive no input events.
func (w *Widget) IsSensitive() bool {
	for x := w; x != nil; x = x.Parent {
		if !x.Bool("sensitive") {
			return false
		}
	}
	return true
}

// --- SetValues / GetValue --------------------------------------------------

// SetValues applies resource string values (the sV command). Values are
// converted, stored, the class SetValues methods run, and geometry or
// redisplay updates follow, as XtSetValues specifies.
func (w *Widget) SetValues(args map[string]string) error {
	changed := make(map[string]bool, len(args))
	geomChanged := false
	for name, src := range args {
		r, ok := w.spec[name]
		if !ok {
			return fmt.Errorf("xt: widget %q (class %s) has no resource %q", w.Name, w.Class.Name, name)
		}
		v, err := w.app.Convert(w, r.Type, src)
		if err != nil {
			return fmt.Errorf("xt: widget %q resource %q: %v", w.Name, name, err)
		}
		w.explicit[name] = true
		// As in XtSetValues, setting a resource to its current value
		// does not count as a change: the class set_values procedures
		// report "no redisplay needed" and the widget is left alone.
		// Only plain comparable values can be checked; anything else
		// (callback lists, pixmaps) conservatively counts as changed.
		if old, ok := w.Get(name); ok && scalarResourceEqual(old, v) {
			continue
		}
		w.setResource(name, v)
		changed[name] = true
		switch name {
		case "x", "y", "width", "height", "borderWidth":
			geomChanged = true
		}
	}
	if len(changed) == 0 {
		return nil
	}
	for _, k := range w.Class.chain() {
		if k.SetValues != nil {
			k.SetValues(w, changed)
		}
	}
	if geomChanged {
		w.applyGeometry()
		w.relayoutParent()
	}
	if changed["translations"] {
		w.updateInputMask()
	}
	if w.realized {
		w.Redraw()
	}
	return nil
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
	r, ok := w.spec[name]
	if !ok {
		return "", fmt.Errorf("xt: widget %q (class %s) has no resource %q", w.Name, w.Class.Name, name)
	}
	v, _ := w.Get(name)
	if v == nil {
		return "", nil
	}
	return w.app.Format(r.Type, v), nil
}

// HasResource reports whether the widget declares the resource.
func (w *Widget) HasResource(name string) bool {
	_, ok := w.spec[name]
	return ok
}

// ResourceNames returns the declared resource names in class order.
func (w *Widget) ResourceNames() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range w.Class.AllResources() {
		out = append(out, r.Name)
		seen[r.Name] = true
	}
	// Constraint resources follow, in declaration order.
	if w.Parent != nil {
		for k := w.Parent.Class; k != nil; k = k.Super {
			for _, r := range k.Constraints {
				if !seen[r.Name] {
					out = append(out, r.Name)
					seen[r.Name] = true
				}
			}
		}
	}
	return out
}

// --- geometry ---------------------------------------------------------------

func (w *Widget) preferredSize() (int, int) {
	if w.explicit["width"] && w.explicit["height"] {
		return maxInt(w.Int("width"), 1), maxInt(w.Int("height"), 1)
	}
	for k := w.Class; k != nil; k = k.Super {
		if k.PreferredSize != nil {
			pw, ph := k.PreferredSize(w)
			if w.explicit["width"] {
				pw = w.Int("width")
			}
			if w.explicit["height"] {
				ph = w.Int("height")
			}
			return maxInt(pw, 1), maxInt(ph, 1)
		}
	}
	return maxInt(w.Int("width"), 1), maxInt(w.Int("height"), 1)
}

// setGeometry updates the core geometry resources and the server
// window, then lets the class react. Like XtConfigureWidget it
// returns immediately when the new geometry equals the old, without
// reconfiguring the window or invoking the class resize procedure.
func (w *Widget) setGeometry(x, y, width, height int) {
	width, height = maxInt(width, 1), maxInt(height, 1)
	if w.Int("x") == x && w.Int("y") == y && w.Int("width") == width && w.Int("height") == height {
		return
	}
	w.setResource("x", x)
	w.setResource("y", y)
	w.setResource("width", width)
	w.setResource("height", height)
	w.applyGeometry()
}

func (w *Widget) applyGeometry() {
	if w.realized {
		w.display.ConfigureWindow(w.window, w.Int("x"), w.Int("y"), w.Int("width"), w.Int("height"))
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
	var out []*Widget
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
	if w.realized && w.Bool("mappedWhenManaged") {
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
		win, err := w.display.CreateWindow(parentWin, w.Int("x"), w.Int("y"), w.Int("width"), w.Int("height"), w.Int("borderWidth"))
		if err != nil {
			panic(fmt.Sprintf("xt: realize %s: %v", w.Name, err))
		}
		w.window = win
		w.realized = true
		w.app.byWindow[windowKey{w.display, win}] = w
		w.display.SetWindowBackground(win, w.PixelRes("background"))
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
		if c.managed && c.Bool("mappedWhenManaged") {
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

// Redraw clears and repaints the whole widget via its class Redisplay.
func (w *Widget) Redraw() {
	if !w.realized {
		return
	}
	if m := w.app.obs.Load(); m != nil {
		m.RedrawFull.Inc()
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
	return xproto.Rect{W: w.Int("width"), H: w.Int("height")}
}

// ClipIntersects reports whether the rect touches the active clip
// region (always true outside a clipped redraw).
func (w *Widget) ClipIntersects(x, y, wd, h int) bool {
	if !w.hasClip {
		return true
	}
	return w.clip.Intersects(xproto.Rect{X: x, Y: y, W: wd, H: h})
}

// RedrawRect repaints only the given rectangle of the widget: the area
// is cleared, the clip set, and the class Redisplay runs consulting
// the clip. Rects covering the whole widget — and every rect while the
// app is in full-repaint oracle mode — fall back to Redraw.
func (w *Widget) RedrawRect(r xproto.Rect) {
	if !w.realized {
		return
	}
	full := xproto.Rect{W: w.Int("width"), H: w.Int("height")}
	r = r.Intersect(full)
	if r.Empty() {
		return
	}
	if w.app.fullRepaint || r.Contains(full) {
		w.Redraw()
		return
	}
	if m := w.app.obs.Load(); m != nil {
		m.RedrawClipped.Inc()
	}
	w.clip, w.hasClip = r, true
	w.display.ClearArea(w.window, r.X, r.Y, r.W, r.H)
	w.redisplay()
	w.hasClip = false
}

// Damage marks a rectangle of the widget dirty (a zero-sized rect
// means the whole widget): the rect enters the display's per-window
// damage region and comes back as a coalesced Expose on the next event
// read, which triggers the clipped redraw.
func (w *Widget) Damage(r xproto.Rect) {
	if !w.realized {
		return
	}
	if r.Empty() || w.app.fullRepaint {
		r = xproto.Rect{W: w.Int("width"), H: w.Int("height")}
	}
	w.display.DamageRect(w.window, r.X, r.Y, r.W, r.H)
}

// redrawExpose services one Expose event, using its damage rect for a
// clipped partial redraw (full repaint when the rect is empty — an
// event synthesized without geometry).
func (w *Widget) redrawExpose(ev *xproto.Event) {
	r := xproto.Rect{X: ev.X, Y: ev.Y, W: ev.Width, H: ev.Height}
	if r.Empty() {
		w.Redraw()
		return
	}
	w.RedrawRect(r)
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
	w.app.liveWidgets--
	// Drop resource storage so late references fail loudly.
	w.resources = map[string]*any{}
	w.spec = map[string]*Resource{}
}

// PathString returns the dotted widget path (for diagnostics).
func (w *Widget) PathString() string {
	return strings.Join(w.pathNames(), ".")
}
