// Package rdd implements a drag-and-drop library in the spirit of Rdd,
// which the paper cites as one of the Xt-based libraries Wafe was easy
// to extend with ("such as Xpm or for example a drag and drop library
// (Rdd)").
//
// The model follows Rdd's: widgets register as drag sources (with a
// data callback) or drop targets (with a drop callback); a drag is a
// Btn2 press on a source, a move, and a release over a target. The
// library installs the needed translations itself and drives the
// protocol from the pointer events, so client code only registers the
// two callbacks.
package rdd

import (
	"fmt"
	"sync"

	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// DataFunc produces the dragged data when a drag starts on the source.
type DataFunc func(source *xt.Widget) string

// DropFunc receives the data when a drag ends over the target.
type DropFunc func(target *xt.Widget, data string, x, y int)

// DND is one drag-and-drop context per application.
type DND struct {
	app     *xt.App
	sources map[string]DataFunc
	targets map[string]DropFunc

	// active drag state.
	dragging bool
	data     string
	from     string
}

// contexts keyed by app, mirroring RddInitialize's per-display context.
// The map is process-global while each DND belongs to one app (one
// session); the mutex covers concurrent sessions creating or releasing
// their contexts — each DND itself is only ever touched from its own
// session's event loop.
var (
	contextsMu sync.Mutex
	contexts   = map[*xt.App]*DND{}
)

// Context returns (creating on first use) the app's drag-and-drop
// context and registers the Rdd actions.
func Context(app *xt.App) *DND {
	contextsMu.Lock()
	d, ok := contexts[app]
	if !ok {
		d = &DND{
			app:     app,
			sources: make(map[string]DataFunc),
			targets: make(map[string]DropFunc),
		}
		contexts[app] = d
	}
	contextsMu.Unlock()
	if !ok {
		app.AddAction("RddStartDrag", d.actionStartDrag)
		app.AddAction("RddDrop", d.actionDrop)
	}
	return d
}

// Release drops the app's drag-and-drop context, if any. Sessions call
// it on close so the process-global map does not pin retired apps.
func Release(app *xt.App) {
	contextsMu.Lock()
	delete(contexts, app)
	contextsMu.Unlock()
}

// RegisterSource makes the widget a drag source (RddRegisterSource).
// The source also receives the release binding: during a drag the
// pointer is grabbed to the source window, so the release is always
// delivered there and RddDrop resolves the real drop window itself.
func (d *DND) RegisterSource(w *xt.Widget, fn DataFunc) error {
	if fn == nil {
		return fmt.Errorf("rdd: nil data function")
	}
	d.sources[w.Name] = fn
	return d.installTranslations(w, "<Btn2Down>: RddStartDrag()\n<Btn2Up>: RddDrop()")
}

// RegisterTarget makes the widget a drop target (RddRegisterTarget).
func (d *DND) RegisterTarget(w *xt.Widget, fn DropFunc) error {
	if fn == nil {
		return fmt.Errorf("rdd: nil drop function")
	}
	d.targets[w.Name] = fn
	return nil
}

// UnregisterSource removes a source registration.
func (d *DND) UnregisterSource(w *xt.Widget) { delete(d.sources, w.Name) }

// UnregisterTarget removes a target registration.
func (d *DND) UnregisterTarget(w *xt.Widget) { delete(d.targets, w.Name) }

func (d *DND) installTranslations(w *xt.Widget, binding string) error {
	nt, err := xt.ParseTranslations(binding)
	if err != nil {
		return err
	}
	var cur *xt.Translations
	if v, ok := w.Get(xt.QTranslations); ok {
		cur, _ = v.(*xt.Translations)
	}
	w.SetResourceValue(xt.QTranslations, cur.Merge(nt, xt.MergeAugment))
	w.UpdateInputMask()
	return nil
}

func (d *DND) actionStartDrag(w *xt.Widget, ev *xproto.Event, _ []string) {
	fn, ok := d.sources[w.Name]
	if !ok {
		return
	}
	d.dragging = true
	d.data = fn(w)
	d.from = w.Name
	// Grab the pointer so the release comes back to the source no
	// matter where it happens (Rdd's drag grab).
	w.Display().GrabPointer(w.Window())
}

// actionDrop runs on the source (grab delivery); it resolves the widget
// under the pointer and fires its drop callback if it is a registered
// target, otherwise the drag is cancelled.
func (d *DND) actionDrop(w *xt.Widget, ev *xproto.Event, _ []string) {
	if !d.dragging {
		return
	}
	d.dragging = false
	disp := w.Display()
	if disp.GrabbedWindow() == w.Window() {
		disp.UngrabPointer()
	}
	_, _, ptrWin := disp.Pointer()
	target := d.app.WidgetForWindow(disp, ptrWin)
	if target == nil {
		d.data = ""
		return
	}
	fn, ok := d.targets[target.Name]
	if !ok {
		// Dropped outside any target: the drag is cancelled.
		d.data = ""
		return
	}
	x, y := 0, 0
	if ev != nil {
		x, y = ev.XRoot, ev.YRoot
		if tw, ok := disp.Lookup(target.Window()); ok {
			wx, wy := tw.RootCoords(0, 0)
			x -= wx
			y -= wy
		}
	}
	fn(target, d.data, x, y)
	d.data = ""
}

// Drag drives a complete synthetic drag from source to target (tests
// and headless demos): press Btn2 on the source, move, release on the
// target.
func (d *DND) Drag(source, target *xt.Widget) error {
	if !source.IsRealized() || !target.IsRealized() {
		return fmt.Errorf("rdd: both widgets must be realized")
	}
	disp := source.Display()
	sw, ok := disp.Lookup(source.Window())
	if !ok {
		return fmt.Errorf("rdd: source window missing")
	}
	tw, ok := disp.Lookup(target.Window())
	if !ok {
		return fmt.Errorf("rdd: target window missing")
	}
	sx, sy := sw.RootCoords(2, 2)
	tx, ty := tw.RootCoords(2, 2)
	disp.WarpPointer(sx, sy)
	disp.InjectButtonPress(2)
	d.app.Pump()
	disp.WarpPointer(tx, ty)
	d.app.Pump()
	disp.InjectButtonRelease(2)
	d.app.Pump()
	return nil
}
