package xt

import "sync"

// Class is a widget class record (XtWidgetClass). Classes form a
// single-inheritance chain; resource lists are additive along the
// chain and method fields chain super-to-sub where the Xt spec says so.
//
// Resource and constraint declarations must be complete before the
// first instance of the class is created: the flattened chain, the
// merged resource list, the interned resource quarks and the compiled
// layouts are memoized on first use and shared by every subsequent
// widget creation.
type Class struct {
	Name  string
	Super *Class

	// Resources declared by this class (excluding superclass ones).
	Resources []Resource

	// Constraints declared by this (constraint) class for its children.
	Constraints []Resource

	// Actions provided by the class, available to translation tables of
	// its instances.
	Actions map[string]ActionProc

	// DefaultTranslations installed when an instance is created.
	DefaultTranslations string

	// Composite marks classes that manage children.
	Composite bool
	// Shell marks top-level / popup shells.
	Shell bool

	// Methods (each may be nil). Initialize runs super-to-sub;
	// Destroy runs sub-to-super.
	Initialize    func(w *Widget)
	Realize       func(w *Widget)
	Redisplay     func(w *Widget)
	Resize        func(w *Widget)
	SetValues     func(w *Widget, changed map[string]bool)
	Destroy       func(w *Widget)
	ChangeManaged func(w *Widget)
	// PreferredSize returns the widget's desired size given its current
	// resources (query-geometry).
	PreferredSize func(w *Widget) (width, height int)

	// cache memoizes the flattened class chain, merged resource list
	// and interned quarks (built once, on first instance creation).
	cacheOnce sync.Once
	cache     *classCache

	// layouts holds the compiled resource layout of this class under
	// each parent class (*Class → *resourceLayout; shells created
	// without a parent use a nil *Class key). Every App shares them,
	// so they are published through the sync.Map and never changed.
	layouts sync.Map
}

// resourceQuarks are the interned symbols for one resource declaration:
// its instance name, class name and value type. Precomputing them per
// class means widget creation resolves every resource against the Xrm
// search list and the converter table without touching the intern
// table.
type resourceQuarks struct {
	nameQ  Quark
	classQ Quark
	typeQ  Quark
}

// classCache holds everything about a class that is recomputed for
// every instance otherwise.
type classCache struct {
	nameQ Quark
	chain []*Class // root-first (Core ... c)

	// all is the merged resource list in class-chain order, deduped by
	// name keeping the first (root-most) declaration; allQ is parallel.
	all  []Resource
	allQ []resourceQuarks

	// constraints is the constraint chain flattened sub-to-super,
	// duplicates preserved (compileLayout resolves them); constraintsQ
	// is parallel.
	constraints  []Resource
	constraintsQ []resourceQuarks
}

func (c *Class) resCache() *classCache {
	c.cacheOnce.Do(func() {
		cc := &classCache{nameQ: StringToQuark(c.Name)}
		var rev []*Class
		for k := c; k != nil; k = k.Super {
			rev = append(rev, k)
		}
		cc.chain = make([]*Class, len(rev))
		for i := range rev {
			cc.chain[i] = rev[len(rev)-1-i]
		}
		seen := map[string]bool{}
		for _, k := range cc.chain {
			for _, r := range k.Resources {
				if seen[r.Name] {
					continue
				}
				seen[r.Name] = true
				cc.all = append(cc.all, r)
			}
		}
		cc.allQ = internResourceQuarks(cc.all)
		for k := c; k != nil; k = k.Super {
			cc.constraints = append(cc.constraints, k.Constraints...)
		}
		cc.constraintsQ = internResourceQuarks(cc.constraints)
		c.cache = cc
	})
	return c.cache
}

// resourceLayout is a compiled resource list (what XtInitializeWidgetClass
// builds, plus the parent's constraints): every resource a widget of
// one class under one parent class carries, in the order creation
// converts them. A widget keeps its values in the slots of its layout.
// byQuark maps the quark of a resource's name to its slot plus one (0
// where the layout declares no such name): Go code reads through it
// with a handle, without hashing the name. index maps the names that
// arrive as strings at run time (SetValues, GetValue, creation args,
// callbacks by name), which would otherwise take the process-wide
// quark table's lock every session shares.
type resourceLayout struct {
	slots   []layoutSlot
	index   map[string]int
	byQuark []int32
}

// layoutSlot is one resolved resource declaration of a layout.
type layoutSlot struct {
	Resource
	resourceQuarks
	// shareDefault marks an immutable scalar type: the App converts
	// the slot's default once and every later widget reuses the value.
	shareDefault bool
}

// destroyedLayout declares nothing. Destroy switches a widget to it, so
// late references to a destroyed widget find no resources.
var destroyedLayout = &resourceLayout{}

// layoutFor returns the compiled layout of c for a widget under parent
// (nil for a shell without a parent), building it on first use.
func (c *Class) layoutFor(parent *Widget) *resourceLayout {
	var pc *Class
	if parent != nil {
		pc = parent.Class
	}
	if l, ok := c.layouts.Load(pc); ok {
		return l.(*resourceLayout)
	}
	l, _ := c.layouts.LoadOrStore(pc, c.compileLayout(pc))
	return l.(*resourceLayout)
}

// compileLayout lays out the class-chain resources, then the parent's
// constraints (sub-most constraint class first). A duplicate name keeps
// its first slot but resolves through the later declaration.
func (c *Class) compileLayout(parent *Class) *resourceLayout {
	cc := c.resCache()
	l := &resourceLayout{index: make(map[string]int, len(cc.all))}
	add := func(r Resource, q resourceQuarks) {
		s := layoutSlot{Resource: r, resourceQuarks: q, shareDefault: shareableDefault(r.Type)}
		if i, dup := l.index[r.Name]; dup {
			l.slots[i] = s
			return
		}
		l.index[r.Name] = len(l.slots)
		l.slots = append(l.slots, s)
	}
	for i, r := range cc.all {
		add(r, cc.allQ[i])
	}
	if parent != nil {
		pc := parent.resCache()
		for i, r := range pc.constraints {
			add(r, pc.constraintsQ[i])
		}
	}
	l.byQuark = make([]int32, slotTableLen())
	for i := range l.slots {
		if q := l.slots[i].nameQ; int(q) < len(l.byQuark) {
			l.byQuark[q] = int32(i + 1)
		}
	}
	return l
}

// slotTableLen returns the length of every layout's slot table: one
// more than the largest quark interned when the first layout was
// compiled. Every package-level handle exists by then, and widget
// names interned later never lengthen a table.
var slotTableLen = sync.OnceValue(func() int { return quarkCount() + 1 })

// slot returns the slot of the resource whose name is q, or -1 when
// the layout declares no such name. A quark beyond the table, made
// after the first layout compiled and so never a handle, is looked up
// by a scan of the slots.
func (l *resourceLayout) slot(q Quark) int {
	if uint(q) < uint(len(l.byQuark)) {
		return int(l.byQuark[q]) - 1
	}
	for i := range l.slots {
		if l.slots[i].nameQ == q {
			return i
		}
	}
	return -1
}

// shareableDefault reports whether converted values of the type are
// immutable scalars one conversion of a default can serve for every
// widget. Callback lists, translation tables, pixmaps, widget
// references, string lists and Motif strings and font lists are
// converted per widget.
func shareableDefault(typeName string) bool {
	switch typeName {
	case TString, TInt, TDimension, TPosition, TCardinal,
		TBoolean, TFloat, TPixel, TFont,
		TJustify, TOrientation, TShapeStyle,
		TCursor, TScreen, TColormap:
		return true
	}
	return false
}

func internResourceQuarks(rs []Resource) []resourceQuarks {
	if len(rs) == 0 {
		return nil
	}
	out := make([]resourceQuarks, len(rs))
	for i, r := range rs {
		out[i] = resourceQuarks{
			nameQ:  StringToQuark(r.Name),
			classQ: StringToQuark(r.Class),
			typeQ:  StringToQuark(r.Type),
		}
	}
	return out
}

// nameQuark returns the interned class name.
func (c *Class) nameQuark() Quark { return c.resCache().nameQ }

// IsSubclassOf reports whether c is cls or a subclass of it.
func (c *Class) IsSubclassOf(cls *Class) bool {
	for k := c; k != nil; k = k.Super {
		if k == cls {
			return true
		}
	}
	return false
}

// chain returns the memoized class chain root-first (Core ... c).
// Callers must not mutate the returned slice.
func (c *Class) chain() []*Class { return c.resCache().chain }

// AllResources returns the full resource list in class-chain order
// (Core resources first), the order XtGetResourceList reports. The
// slice is memoized and shared — callers must not mutate it.
func (c *Class) AllResources() []Resource { return c.resCache().all }

// AllConstraints returns the constraint resources this class (and its
// superclasses) declares for its children, memoized like
// AllResources. The slice is shared — callers must not mutate it.
func (c *Class) AllConstraints() []Resource { return c.resCache().constraints }

// actionFor resolves an action name against the class chain (sub-most
// class wins), returning nil when undefined.
func (c *Class) actionFor(name string) ActionProc {
	for k := c; k != nil; k = k.Super {
		if k.Actions != nil {
			if a, ok := k.Actions[name]; ok {
				return a
			}
		}
	}
	return nil
}

// Handles of the Core and Shell resources Go code reads. A handle is
// the quark of the resource's name; the accessors (Get, Int, Str, ...)
// find it in the slot table of the widget's layout without hashing
// the name. Each is interned once, while the package initialises.
var (
	QAccelerators      = StringToQuark("accelerators")
	QAllowShellResize  = StringToQuark("allowShellResize")
	QBackground        = StringToQuark("background")
	QBorderColor       = StringToQuark("borderColor")
	QBorderWidth       = StringToQuark("borderWidth")
	QHeight            = StringToQuark("height")
	QIconName          = StringToQuark("iconName")
	QMappedWhenManaged = StringToQuark("mappedWhenManaged")
	QSensitive         = StringToQuark("sensitive")
	QTitle             = StringToQuark("title")
	QTranslations      = StringToQuark("translations")
	QWidth             = StringToQuark("width")
	QX                 = StringToQuark("x")
	QY                 = StringToQuark("y")
)

// CoreClass is the root class. Its resource list deliberately follows
// the X11R5 ordering so getResourceList output starts, as printed in
// the paper, with "destroyCallback ancestorSensitive x y width height
// borderWidth sensitive screen depth colormap background ...".
var CoreClass = &Class{
	Name: "Core",
	Resources: []Resource{
		{"destroyCallback", "Callback", TCallback, ""},
		{"ancestorSensitive", "Sensitive", TBoolean, "True"},
		{"x", "Position", TPosition, "0"},
		{"y", "Position", TPosition, "0"},
		{"width", "Width", TDimension, "0"},
		{"height", "Height", TDimension, "0"},
		{"borderWidth", "BorderWidth", TDimension, "1"},
		{"sensitive", "Sensitive", TBoolean, "True"},
		{"screen", "Screen", TScreen, ""},
		{"depth", "Depth", TInt, "24"},
		{"colormap", "Colormap", TColormap, ""},
		{"background", "Background", TPixel, "XtDefaultBackground"},
		{"backgroundPixmap", "Pixmap", TPixmap, ""},
		{"borderColor", "BorderColor", TPixel, "XtDefaultForeground"},
		{"borderPixmap", "Pixmap", TPixmap, ""},
		{"mappedWhenManaged", "MappedWhenManaged", TBoolean, "True"},
		{"translations", "Translations", TTranslations, ""},
		{"accelerators", "Accelerators", TAccelerators, ""},
	},
}

// CompositeClass manages children.
var CompositeClass = &Class{
	Name:      "Composite",
	Super:     CoreClass,
	Composite: true,
}

// ConstraintClass adds per-child constraint resources.
var ConstraintClass = &Class{
	Name:      "Constraint",
	Super:     CompositeClass,
	Composite: true,
}

// ShellClass is the base for all shells.
var ShellClass = &Class{
	Name:      "Shell",
	Super:     CompositeClass,
	Composite: true,
	Shell:     true,
	Resources: []Resource{
		{"allowShellResize", "AllowShellResize", TBoolean, "True"},
		{"overrideRedirect", "OverrideRedirect", TBoolean, "False"},
		{"saveUnder", "SaveUnder", TBoolean, "False"},
		{"geometry", "Geometry", TString, ""},
	},
}

// WMShellClass adds window-manager interaction resources.
var WMShellClass = &Class{
	Name:  "WMShell",
	Super: ShellClass,
	Shell: true, Composite: true,
	Resources: []Resource{
		{"title", "Title", TString, ""},
		{"iconName", "IconName", TString, ""},
		{"minWidth", "MinWidth", TDimension, "0"},
		{"minHeight", "MinHeight", TDimension, "0"},
	},
}

// TopLevelShellClass is the class of topLevel and additional
// application shells.
var TopLevelShellClass = &Class{
	Name:  "TopLevelShell",
	Super: WMShellClass,
	Shell: true, Composite: true,
	Resources: []Resource{
		{"iconic", "Iconic", TBoolean, "False"},
	},
}

// ApplicationShellClass is the class of the automatically created
// topLevel widget.
var ApplicationShellClass = &Class{
	Name:  "ApplicationShell",
	Super: TopLevelShellClass,
	Shell: true, Composite: true,
}

// TransientShellClass is used for dialogs.
var TransientShellClass = &Class{
	Name:  "TransientShell",
	Super: WMShellClass,
	Shell: true, Composite: true,
	Resources: []Resource{
		{"transientFor", "TransientFor", TWidget, ""},
	},
}

// OverrideShellClass is used for menus (no WM interaction).
var OverrideShellClass = &Class{
	Name:  "OverrideShell",
	Super: ShellClass,
	Shell: true, Composite: true,
}

func init() {
	shellInit := func(w *Widget) {
		// Shells default to border 0 and start unmanaged (popped up or
		// realized explicitly).
		if !w.Explicit(QBorderWidth) {
			w.setResource(QBorderWidth, 0)
		}
	}
	for _, c := range []*Class{ShellClass, WMShellClass, TopLevelShellClass, ApplicationShellClass, TransientShellClass, OverrideShellClass} {
		c.Initialize = shellInit
		c.PreferredSize = shellPreferredSize
		c.ChangeManaged = shellLayout
		c.Resize = shellResize
	}
}

func shellPreferredSize(w *Widget) (int, int) {
	if len(w.managedChildren()) == 0 {
		return maxInt(w.Int(QWidth), 1), maxInt(w.Int(QHeight), 1)
	}
	c := w.managedChildren()[0]
	cw, ch := c.preferredSize()
	return cw + 2*c.Int(QBorderWidth), ch + 2*c.Int(QBorderWidth)
}

// shellLayout sizes the shell to its (single) managed child, or the
// child to the shell when the shell has an explicit size.
func shellLayout(w *Widget) {
	kids := w.managedChildren()
	if len(kids) == 0 {
		return
	}
	c := kids[0]
	cw, ch := c.preferredSize()
	if w.Bool(QAllowShellResize) || w.Int(QWidth) == 0 || w.Int(QHeight) == 0 {
		w.setGeometry(w.Int(QX), w.Int(QY), cw+2*c.Int(QBorderWidth), ch+2*c.Int(QBorderWidth))
	}
	c.setGeometry(0, 0, maxInt(w.Int(QWidth)-2*c.Int(QBorderWidth), 1), maxInt(w.Int(QHeight)-2*c.Int(QBorderWidth), 1))
}

func shellResize(w *Widget) {
	kids := w.managedChildren()
	if len(kids) == 0 {
		return
	}
	c := kids[0]
	c.setGeometry(0, 0, maxInt(w.Int(QWidth)-2*c.Int(QBorderWidth), 1), maxInt(w.Int(QHeight)-2*c.Int(QBorderWidth), 1))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
