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

func (w *Wafe) cmdRddRegisterSource(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	ps := w.percentScript(argv[2])
	err = w.dnd().RegisterSource(wid, func(src *xt.Widget) string {
		res, err := w.evalValues(ps, map[byte]string{'w': src.Name})
		if err != nil {
			w.reportScriptError("drag source", src, err)
			return ""
		}
		return res
	})
	if err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

func (w *Wafe) cmdRddRegisterTarget(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	ps := w.percentScript(argv[2])
	err = w.dnd().RegisterTarget(wid, func(tgt *xt.Widget, data string, x, y int) {
		vals := map[byte]string{'w': tgt.Name, 'v': tcl.QuoteListElement(data), 'x': strconv.Itoa(x), 'y': strconv.Itoa(y)}
		if _, err := w.evalValues(ps, vals); err != nil {
			w.reportScriptError("drop target", tgt, err)
		}
	})
	if err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}

func (w *Wafe) cmdRddUnregisterSource(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	w.dnd().UnregisterSource(wid)
	return "", nil
}

func (w *Wafe) cmdRddUnregisterTarget(argv []string) (string, error) {
	wid, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	w.dnd().UnregisterTarget(wid)
	return "", nil
}

func (w *Wafe) cmdRddDrag(argv []string) (string, error) {
	src, err := w.widgetArg(argv[1])
	if err != nil {
		return "", err
	}
	dst, err := w.widgetArg(argv[2])
	if err != nil {
		return "", err
	}
	if err := w.dnd().Drag(src, dst); err != nil {
		return "", tcl.NewError("%s", err.Error())
	}
	return "", nil
}
