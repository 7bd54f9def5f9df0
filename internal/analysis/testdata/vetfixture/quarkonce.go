// quarkonce fixture: a constant interned inside a function reports; a
// package-level handle and a name known only at run time stay quiet.
package vetfixture

import "wafe/internal/xt"

var qLabel = xt.StringToQuark("label")

func labelWidth(w *xt.Widget) int {
	return w.Int(xt.StringToQuark("width")) // want quarkonce
}

func labelText(w *xt.Widget) string { return w.Str(qLabel) }

func byName(w *xt.Widget, name string) any {
	v, _ := w.Get(xt.StringToQuark(name))
	return v
}
