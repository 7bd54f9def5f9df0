package xaw

import (
	"fmt"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// FormClass is the Athena constraint widget: children are positioned
// relative to each other with the fromVert/fromHoriz constraints the
// paper's Perl example uses.
var FormClass = &xt.Class{
	Name:      "Form",
	Super:     xt.ConstraintClass,
	Composite: true,
	Resources: []xt.Resource{
		{Name: "defaultDistance", Class: "Thickness", Type: xt.TDimension, Default: "4"},
	},
	Constraints: []xt.Resource{
		{Name: "fromVert", Class: "Widget", Type: xt.TWidget, Default: ""},
		{Name: "fromHoriz", Class: "Widget", Type: xt.TWidget, Default: ""},
		{Name: "horizDistance", Class: "Thickness", Type: xt.TDimension, Default: "4"},
		{Name: "vertDistance", Class: "Thickness", Type: xt.TDimension, Default: "4"},
		{Name: "top", Class: "Edge", Type: xt.TString, Default: "rubber"},
		{Name: "bottom", Class: "Edge", Type: xt.TString, Default: "rubber"},
		{Name: "left", Class: "Edge", Type: xt.TString, Default: "rubber"},
		{Name: "right", Class: "Edge", Type: xt.TString, Default: "rubber"},
		{Name: "resizable", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
	},
	ChangeManaged: formLayout,
	PreferredSize: formPlace,
	Resize:        func(w *xt.Widget) { formPlace(w) },
}

// formPrivate is a Form's instance state.
type formPrivate struct {
	// resizeDisabled is the XawFormAllowResize state (false allows):
	// layout still places the children but keeps the form's size.
	resizeDisabled bool
}

// FormAllowResize implements XawFormAllowResize; Wafe exposes it as the
// formAllowResize command. The flag lives in the widget, so it is
// private to its session and freed with it. Viewport keeps its own
// private state and lays out without the flag.
func FormAllowResize(w *xt.Widget, allow bool) {
	switch st := w.Private.(type) {
	case *formPrivate:
		st.resizeDisabled = !allow
	case nil:
		w.Private = &formPrivate{resizeDisabled: !allow}
	}
}

func constraintWidget(c *xt.Widget, name string) *xt.Widget {
	if v, ok := c.Get(name); ok {
		if w, ok := v.(*xt.Widget); ok {
			return w
		}
	}
	return nil
}

// formPlace places a Form's managed children from their constraints,
// sets their geometry in managed-child order and returns the size that
// encloses them.
func formPlace(w *xt.Widget) (int, int) {
	p := formPlacer{form: w, dd: w.Int("defaultDistance"), kids: w.ManagedChildren()}
	p.slots = make([]formSlot, len(p.kids))
	for i := range p.kids {
		p.place(i)
	}
	maxX, maxY := 1, 1
	for i, c := range p.kids {
		g := p.slots[i].geom
		c.SetChildGeometry(g[0], g[1], g[2], g[3])
		bw := c.Int("borderWidth")
		maxX = max(maxX, g[0]+g[2]+2*bw+p.dd)
		maxY = max(maxY, g[1]+g[3]+2*bw+p.dd)
	}
	return maxX, maxY
}

// formPlacer holds a Form's children while formPlace places them:
// slots[i] is kids[i]'s place.
type formPlacer struct {
	form  *xt.Widget
	dd    int
	kids  []*xt.Widget
	slots []formSlot
}

type formSlot struct {
	geom  [4]int // x, y, width, height
	state uint8
}

const (
	formUnplaced uint8 = iota
	formPlacing        // a constraint leading back here is a cycle
	formPlaced
)

// index returns the slot of c, a widget a constraint names, or -1 when
// c is not a managed child of the form.
func (p *formPlacer) index(c *xt.Widget) int {
	if c == nil || c.Parent != p.form || !c.IsManaged() {
		return -1
	}
	for i, k := range p.kids {
		if k == c {
			return i
		}
	}
	// A managed popup shell is not among the managed children, but a
	// constraint may still name it, and then it is placed too.
	p.kids = append(p.kids, c)
	p.slots = append(p.slots, formSlot{})
	return len(p.kids) - 1
}

func (p *formPlacer) place(i int) [4]int {
	switch p.slots[i].state {
	case formPlaced:
		return p.slots[i].geom
	case formPlacing:
		// Constraint cycle: fall back to origin.
		return [4]int{p.dd, p.dd, 1, 1}
	}
	p.slots[i].state = formPlacing
	c := p.kids[i]
	cw, ch := c.PreferredSize()
	x, y := p.dd, p.dd
	if j := p.index(constraintWidget(c, "fromHoriz")); j >= 0 {
		g := p.place(j)
		x = g[0] + g[2] + 2*p.kids[j].Int("borderWidth") + c.Int("horizDistance")
	}
	if j := p.index(constraintWidget(c, "fromVert")); j >= 0 {
		g := p.place(j)
		y = g[1] + g[3] + 2*p.kids[j].Int("borderWidth") + c.Int("vertDistance")
	}
	p.slots[i] = formSlot{[4]int{x, y, cw, ch}, formPlaced}
	return p.slots[i].geom
}

func formLayout(w *xt.Widget) {
	maxX, maxY := formPlace(w)
	if st, ok := w.Private.(*formPrivate); ok && st.resizeDisabled {
		return
	}
	// Size the form to enclose its children unless explicitly sized.
	if !w.Explicit("width") || !w.Explicit("height") {
		nw, nh := w.Int("width"), w.Int("height")
		if !w.Explicit("width") {
			nw = maxX
		}
		if !w.Explicit("height") {
			nh = maxY
		}
		if nw != w.Int("width") || nh != w.Int("height") {
			w.RequestResize(nw, nh)
		}
	}
}

// BoxClass packs children in rows (or a column when vertical).
var BoxClass = &xt.Class{
	Name:      "Box",
	Super:     xt.CompositeClass,
	Composite: true,
	Resources: []xt.Resource{
		{Name: "hSpace", Class: "HSpace", Type: xt.TDimension, Default: "4"},
		{Name: "vSpace", Class: "VSpace", Type: xt.TDimension, Default: "4"},
		{Name: "orientation", Class: "Orientation", Type: xt.TOrientation, Default: "vertical"},
	},
	ChangeManaged: boxLayout,
	PreferredSize: boxPreferredSize,
	Resize:        func(w *xt.Widget) { boxPlace(w) },
}

func boxPlace(w *xt.Widget) (int, int) {
	hs, vs := w.Int("hSpace"), w.Int("vSpace")
	x, y := hs, vs
	maxX, maxY := 1, 1
	horizontal := w.Str("orientation") == "horizontal"
	for _, c := range w.ManagedChildren() {
		cw, ch := c.PreferredSize()
		bw := c.Int("borderWidth")
		c.SetChildGeometry(x, y, cw, ch)
		if horizontal {
			x += cw + 2*bw + hs
			if y+ch+2*bw+vs > maxY {
				maxY = y + ch + 2*bw + vs
			}
			maxX = x
		} else {
			y += ch + 2*bw + vs
			if x+cw+2*bw+hs > maxX {
				maxX = x + cw + 2*bw + hs
			}
			maxY = y
		}
	}
	return maxX, maxY
}

func boxLayout(w *xt.Widget) {
	maxX, maxY := boxPlace(w)
	if !w.Explicit("width") || !w.Explicit("height") {
		nw, nh := w.Int("width"), w.Int("height")
		if !w.Explicit("width") {
			nw = maxX
		}
		if !w.Explicit("height") {
			nh = maxY
		}
		w.RequestResize(nw, nh)
	}
}

func boxPreferredSize(w *xt.Widget) (int, int) { return boxPlace(w) }

// PanedClass stacks children vertically (or horizontally) with grips
// between panes.
var PanedClass = &xt.Class{
	Name:      "Paned",
	Super:     xt.ConstraintClass,
	Composite: true,
	Resources: []xt.Resource{
		{Name: "orientation", Class: "Orientation", Type: xt.TOrientation, Default: "vertical"},
		{Name: "internalBorderWidth", Class: "BorderWidth", Type: xt.TDimension, Default: "1"},
	},
	Constraints: []xt.Resource{
		{Name: "min", Class: "Min", Type: xt.TDimension, Default: "1"},
		{Name: "max", Class: "Max", Type: xt.TDimension, Default: "10000"},
		{Name: "preferredPaneSize", Class: "PreferredPaneSize", Type: xt.TDimension, Default: "0"},
		{Name: "skipAdjust", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "showGrip", Class: "ShowGrip", Type: xt.TBoolean, Default: "True"},
	},
	ChangeManaged: panedLayout,
	PreferredSize: panedPreferredSize,
	Resize:        func(w *xt.Widget) { panedPlace(w) },
}

// panedPrivate guards grip creation and grip management against
// layout recursion.
type panedPrivate struct {
	creatingGrips bool
	managingGrips bool
}

func panedState(w *xt.Widget) *panedPrivate {
	st, ok := w.Private.(*panedPrivate)
	if !ok {
		st = &panedPrivate{}
		w.Private = st
	}
	return st
}

// panedGripName names the grip that follows a pane.
func panedGripName(pane *xt.Widget) string { return pane.Name + "Grip" }

// panedPanes returns the managed children that are real panes (not
// grips).
func panedPanes(w *xt.Widget) []*xt.Widget {
	var out []*xt.Widget
	for _, c := range w.ManagedChildren() {
		if c.Class == GripClass {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ensurePanedGrip creates (once) the grip following a pane and wires
// its release callback to resize the pane — the Xaw drag-to-resize
// protocol in its committed-on-release form.
func ensurePanedGrip(w, pane *xt.Widget) *xt.Widget {
	name := panedGripName(pane)
	if g := w.App().WidgetByName(name); g != nil {
		return g
	}
	st := panedState(w)
	if st.creatingGrips {
		return nil
	}
	st.creatingGrips = true
	defer func() { st.creatingGrips = false }()
	g, err := w.App().CreateWidget(name, GripClass, w, nil, true)
	if err != nil {
		return nil
	}
	paned, thisPane := w, pane
	_ = g.AddCallback("callback", xt.Callback{
		Source: "paned grip",
		Proc: func(grip *xt.Widget, data xt.CallData) {
			if data["action"] != "release" {
				return
			}
			// The new boundary is the pointer position relative to the
			// pane's top (vertical) or left (horizontal).
			_, _, _ = grip, paned, thisPane
			px, py, _ := paned.Display().Pointer()
			if pw, ok := paned.Display().Lookup(paned.Window()); ok {
				ox, oy := pw.RootCoords(0, 0)
				var newSize int
				if paned.Str("orientation") != "horizontal" {
					newSize = (py - oy) - thisPane.Int("y")
				} else {
					newSize = (px - ox) - thisPane.Int("x")
				}
				lo, hi := thisPane.Int("min"), thisPane.Int("max")
				newSize = clampInt(newSize, maxInt(lo, 1), hi)
				thisPane.SetResourceValue("preferredPaneSize", newSize)
				panedPlace(paned)
				paned.Damage(xproto.Rect{})
			}
		},
	})
	return g
}

func panedPlace(w *xt.Widget) (int, int) {
	ib := w.Int("internalBorderWidth")
	vertical := w.Str("orientation") != "horizontal"
	pos := 0
	maxCross := 1
	panes := panedPanes(w)
	for i, c := range panes {
		cw, ch := c.PreferredSize()
		if p := c.Int("preferredPaneSize"); p > 0 {
			if vertical {
				ch = p
			} else {
				cw = p
			}
		}
		if vertical {
			c.SetChildGeometry(0, pos, maxInt(cw, w.Int("width")), ch)
			pos += ch + 2*c.Int("borderWidth") + ib
			if cw > maxCross {
				maxCross = cw
			}
		} else {
			c.SetChildGeometry(pos, 0, cw, maxInt(ch, w.Int("height")))
			pos += cw + 2*c.Int("borderWidth") + ib
			if ch > maxCross {
				maxCross = ch
			}
		}
		// A grip sits on each internal boundary (not after the last
		// pane) when the pane asks for one.
		if i < len(panes)-1 && c.Bool("showGrip") {
			if g := ensurePanedGrip(w, c); g != nil {
				gw, gh := g.PreferredSize()
				if vertical {
					g.SetChildGeometry(maxInt(w.Int("width")-gw-w.Int("internalBorderWidth")-10, 0), pos-gh/2-ib, gw, gh)
				} else {
					g.SetChildGeometry(pos-gw/2-ib, maxInt(w.Int("height")-gh-10, 0), gw, gh)
				}
			}
		}
	}
	if vertical {
		return maxCross, maxInt(pos, 1)
	}
	return maxInt(pos, 1), maxCross
}

// panedManageGrips manages the grip of every managed pane that shows
// one and is not the last pane, and unmanages every other grip, as
// Xaw's Paned does in ChangeManaged (ManageAndUnmanageGrips). The
// layouts that managing a grip asks for are skipped, because the
// caller lays the Paned out next.
func panedManageGrips(w *xt.Widget) {
	st := panedState(w)
	st.managingGrips = true
	defer func() { st.managingGrips = false }()
	var last *xt.Widget
	if panes := panedPanes(w); len(panes) > 0 {
		last = panes[len(panes)-1]
	}
	for _, c := range w.Children() {
		g := w.App().WidgetByName(panedGripName(c))
		if c.Class == GripClass || g == nil || g.Parent != w {
			continue
		}
		if c.IsManaged() && c != last && c.Bool("showGrip") {
			g.Manage()
		} else {
			g.Unmanage()
		}
	}
}

func panedLayout(w *xt.Widget) {
	if panedState(w).managingGrips {
		return
	}
	panedManageGrips(w)
	pw, ph := panedPlace(w)
	if !w.Explicit("width") || !w.Explicit("height") {
		nw, nh := w.Int("width"), w.Int("height")
		if !w.Explicit("width") {
			nw = pw
		}
		if !w.Explicit("height") {
			nh = ph
		}
		w.RequestResize(nw, nh)
	}
}

func panedPreferredSize(w *xt.Widget) (int, int) { return panedPlace(w) }

// ViewportClass clips a single child and provides scrollbars.
var ViewportClass = &xt.Class{
	Name:      "Viewport",
	Super:     FormClass,
	Composite: true,
	Resources: []xt.Resource{
		{Name: "allowHoriz", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "allowVert", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "forceBars", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "useBottom", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
		{Name: "useRight", Class: "Boolean", Type: xt.TBoolean, Default: "False"},
	},
	ChangeManaged: viewportLayout,
	PreferredSize: viewportPreferredSize,
	Resize:        viewportPlace,
}

// viewportPrivate holds the scroll offsets.
type viewportPrivate struct {
	offX, offY int
}

func viewportState(w *xt.Widget) *viewportPrivate {
	st, ok := w.Private.(*viewportPrivate)
	if !ok {
		st = &viewportPrivate{}
		w.Private = st
	}
	return st
}

// ViewportSetLocation implements XawViewportSetLocation: scroll the
// child so that (xFrac, yFrac) of it is at the viewport origin.
func ViewportSetLocation(w *xt.Widget, xFrac, yFrac float64) {
	c := viewportMainChild(w)
	if c == nil {
		return
	}
	st := viewportState(w)
	cw, ch := c.Int("width"), c.Int("height")
	st.offX = clampInt(int(xFrac*float64(cw)), 0, maxInt(cw-w.Int("width"), 0))
	st.offY = clampInt(int(yFrac*float64(ch)), 0, maxInt(ch-w.Int("height"), 0))
	if !w.Bool("allowHoriz") {
		st.offX = 0
	}
	if !w.Bool("allowVert") {
		st.offY = 0
	}
	c.SetChildGeometry(-st.offX, -st.offY, cw, ch)
	// As Xaw's MoveChild does, keep the scrollbar's thumb on the child.
	if sb := w.App().WidgetByName(viewportScrollName(w)); sb != nil && sb.IsManaged() && ch > 0 {
		ScrollbarSetThumb(sb, float64(st.offY)/float64(ch), sbFloat(sb, "shown"))
	}
	w.Damage(xproto.Rect{})
}

// ViewportLocation returns the current scroll offsets in pixels.
func ViewportLocation(w *xt.Widget) (int, int) {
	st := viewportState(w)
	return st.offX, st.offY
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// viewportScrollName names the auto-created vertical scrollbar.
func viewportScrollName(w *xt.Widget) string { return w.Name + "VScroll" }

// viewportMainChild returns the scrolled child, skipping the
// auto-created scrollbar.
func viewportMainChild(w *xt.Widget) *xt.Widget {
	for _, c := range w.ManagedChildren() {
		if c.Name != viewportScrollName(w) {
			return c
		}
	}
	return nil
}

// ensureViewportBars creates the vertical scrollbar when allowVert (or
// forceBars) asks for one, wiring its jumpProc to ViewportSetLocation —
// the Xaw behaviour of Viewport creating its own Scrollbar children.
func ensureViewportBars(w *xt.Widget) {
	if !w.Bool("allowVert") && !w.Bool("forceBars") {
		return
	}
	name := viewportScrollName(w)
	if w.App().WidgetByName(name) != nil {
		return
	}
	sb, err := w.App().CreateWidget(name, ScrollbarClass, w, map[string]string{
		"orientation": "vertical",
	}, false)
	if err != nil {
		return
	}
	vp := w
	_ = sb.AddCallback("jumpProc", xt.Callback{
		Source: "viewport scroll",
		Proc: func(_ *xt.Widget, data xt.CallData) {
			var frac float64
			if v, ok := data["f"]; ok {
				if _, err := fmt.Sscanf(v, "%g", &frac); err != nil {
					return
				}
			}
			ViewportSetLocation(vp, 0, frac)
		},
	})
	sb.Manage()
}

// viewportLayout is Viewport's change_managed: it creates the
// scrollbar, asks for a size fitting the child (up to 300 pixels in a
// dimension the user did not set) and places the children.
func viewportLayout(w *xt.Widget) {
	ensureViewportBars(w)
	c := viewportMainChild(w)
	if c == nil {
		return
	}
	if !w.Explicit("width") || !w.Explicit("height") {
		cw, ch := c.PreferredSize()
		nw, nh := w.Int("width"), w.Int("height")
		if !w.Explicit("width") {
			nw = minInt(cw, 300)
		}
		if !w.Explicit("height") {
			nh = minInt(ch, 300)
		}
		w.RequestResize(nw, nh)
	}
	viewportPlace(w)
}

// viewportPlace is Viewport's resize: it only places the child and the
// scrollbar within the current size. Requesting a size here would run
// resize again from inside the request.
func viewportPlace(w *xt.Widget) {
	c := viewportMainChild(w)
	if c == nil {
		return
	}
	cw, ch := c.PreferredSize()
	st := viewportState(w)
	// The child keeps its preferred size; the viewport clips it and
	// offsets it by the current scroll position.
	c.SetChildGeometry(-st.offX, -st.offY, cw, ch)
	// Pin the scrollbar to the right edge and keep its thumb in sync.
	if sb := w.App().WidgetByName(viewportScrollName(w)); sb != nil && sb.IsManaged() {
		thickness := sb.Int("thickness")
		sb.SetChildGeometry(w.Int("width")-thickness, 0, thickness, w.Int("height"))
		if ch > 0 {
			shown := float64(w.Int("height")) / float64(ch)
			if shown > 1 {
				shown = 1
			}
			sb.SetResourceValue("shown", shown)
			sb.SetResourceValue("topOfThumb", float64(st.offY)/float64(ch))
		}
	}
}

func viewportPreferredSize(w *xt.Widget) (int, int) {
	c := viewportMainChild(w)
	if c == nil {
		return maxInt(w.Int("width"), 1), maxInt(w.Int("height"), 1)
	}
	return c.PreferredSize()
}

// DialogClass is a Form with a label, an optional editable value and
// button children; XawDialogGetValueString maps to DialogValue.
var DialogClass = &xt.Class{
	Name:      "Dialog",
	Super:     FormClass,
	Composite: true,
	Resources: []xt.Resource{
		{Name: "label", Class: "Label", Type: xt.TString, Default: ""},
		{Name: "value", Class: "Value", Type: xt.TString, Default: ""},
		{Name: "icon", Class: "Icon", Type: xt.TBitmap, Default: ""},
	},
	ChangeManaged: formLayout,
	PreferredSize: dialogPreferredSize,
	Redisplay: func(w *xt.Widget) {
		d := w.Display()
		clip := w.Clip()
		gc := d.NewGC()
		gc.Foreground = w.PixelRes("background")
		d.FillRectangle(w.Window(), gc, clip.X, clip.Y, clip.W, clip.H)
		gc.Foreground = w.PixelRes("borderColor")
		f := gc.Font
		if label := w.Str("label"); w.ClipIntersects(4, 2, f.TextWidth(label), f.Height()) {
			d.DrawString(w.Window(), gc, 4, f.Ascent+2, label)
		}
		if v := w.Str("value"); v != "" && w.ClipIntersects(4, 2*f.Height()+2-f.Ascent, f.TextWidth(v), f.Height()) {
			d.DrawString(w.Window(), gc, 4, 2*f.Height()+2, v)
		}
	},
}

func dialogPreferredSize(w *xt.Widget) (int, int) {
	fw, fh := formPlace(w)
	f := w.App()
	_ = f
	labelW := 6*len(w.Str("label")) + 8
	if labelW > fw {
		fw = labelW
	}
	return fw, fh + 2*13 // room for label and value lines
}

// DialogValue returns the dialog's value string
// (XawDialogGetValueString).
func DialogValue(w *xt.Widget) string { return w.Str("value") }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
