package xt

import (
	"strings"

	"wafe/internal/obs"
)

// CallData carries per-invocation information a widget passes to its
// callbacks (XtCallbackProc's call_data). Keys are the percent-code
// letters the Wafe layer substitutes: "i" → index, "s" → string, etc.
// The "w" code (invoking widget) is always available via the widget
// argument itself.
type CallData map[string]string

// CallbackProc is an Xt callback procedure.
type CallbackProc func(w *Widget, data CallData)

// Callback pairs a procedure with the source string it was created
// from, so the resource remains readable (gV widget callback).
type Callback struct {
	// Source is the Wafe-level representation: a Tcl script, or
	// "predefinedName shellName" for predefined callbacks.
	Source string
	Proc   CallbackProc
	// Compiled is an opaque slot for the interpreter layer to stash a
	// pre-parsed form of Source; xt never inspects it.
	Compiled any
}

// CallbackList is the value of a Callback-typed resource.
type CallbackList []Callback

// Source renders the list back to its string form; multiple entries
// join with "; " as concatenated scripts.
func (cl CallbackList) Source() string {
	parts := make([]string, 0, len(cl))
	for _, c := range cl {
		if c.Source != "" {
			parts = append(parts, c.Source)
		}
	}
	return strings.Join(parts, "; ")
}

// AddCallback appends a callback to the named callback resource
// (XtAddCallback).
func (w *Widget) AddCallback(name string, cb Callback) error {
	i, ok := w.callbackSlot(name)
	if !ok {
		return errNoCallbackResource(w, name)
	}
	list, _ := w.values[i].(CallbackList)
	w.values[i] = append(list, cb)
	return nil
}

// RemoveAllCallbacks clears the named callback list
// (XtRemoveAllCallbacks).
func (w *Widget) RemoveAllCallbacks(name string) error {
	i, ok := w.callbackSlot(name)
	if !ok {
		return errNoCallbackResource(w, name)
	}
	w.values[i] = CallbackList(nil)
	return nil
}

// callbackSlot returns the slot of the named Callback resource.
func (w *Widget) callbackSlot(name string) (int, bool) {
	i, ok := w.layout.index[name]
	return i, ok && w.layout.slots[i].Type == TCallback
}

// CallCallbacks invokes every callback on the named list
// (XtCallCallbacks). Insensitive widgets still deliver callbacks when
// called programmatically, as in Xt.
func (w *Widget) CallCallbacks(name string, data CallData) {
	i, ok := w.callbackSlot(name)
	if !ok {
		return
	}
	list, _ := w.values[i].(CallbackList)
	for _, cb := range list {
		if cb.Proc != nil {
			var sp obs.SpanCtx
			if m := w.app.metrics.Load(); m != nil {
				m.Xt.CallbacksFired.Inc()
				if m.Trace.Enabled() {
					sp = m.Trace.StartSpan("callback", w.Name+"."+name)
				}
			}
			cb.Proc(w, data)
			sp.End()
		}
	}
}

// HasCallbacks reports whether the named list has any entries
// (XtHasCallbacks).
func (w *Widget) HasCallbacks(name string) bool {
	i, ok := w.callbackSlot(name)
	if !ok {
		return false
	}
	list, _ := w.values[i].(CallbackList)
	return len(list) > 0
}

func errNoCallbackResource(w *Widget, name string) error {
	return &xtError{msg: "xt: widget " + w.Name + " (class " + w.Class.Name + ") has no callback resource " + name}
}

type xtError struct{ msg string }

func (e *xtError) Error() string { return e.msg }
