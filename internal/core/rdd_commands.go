package core

import (
	"strconv"

	"wafe/internal/rdd"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

// The drag-and-drop commands layered over internal/rdd, following the
// paper's extension story (the Rdd library was one of the Xt-based
// libraries Wafe integrated): rddRegisterSource, rddRegisterTarget,
// rddUnregisterSource, rddUnregisterTarget and rddDrag, a synthetic
// drag for the headless display.

func (w *Wafe) dnd() *rdd.DND { return rdd.Context(w.App) }

func (w *Wafe) rddRegisterSource(wid *xt.Widget, script string) error {
	ps := w.percentScript(script)
	return w.dnd().RegisterSource(wid, func(src *xt.Widget) string {
		res, err := w.evalValues(ps, map[byte]string{'w': src.Name})
		if err != nil {
			w.reportScriptError("drag source", src, err)
			return ""
		}
		return res
	})
}

func (w *Wafe) rddRegisterTarget(wid *xt.Widget, script string) error {
	ps := w.percentScript(script)
	return w.dnd().RegisterTarget(wid, func(tgt *xt.Widget, data string, x, y int) {
		vals := map[byte]string{'w': tgt.Name, 'v': tcl.QuoteListElement(data), 'x': strconv.Itoa(x), 'y': strconv.Itoa(y)}
		if _, err := w.evalValues(ps, vals); err != nil {
			w.reportScriptError("drop target", tgt, err)
		}
	})
}

func (w *Wafe) rddUnregisterSource(wid *xt.Widget) error {
	w.dnd().UnregisterSource(wid)
	return nil
}

func (w *Wafe) rddUnregisterTarget(wid *xt.Widget) error {
	w.dnd().UnregisterTarget(wid)
	return nil
}

func (w *Wafe) rddDrag(src, dst *xt.Widget) error { return w.dnd().Drag(src, dst) }
