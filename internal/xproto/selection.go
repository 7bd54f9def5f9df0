package xproto

// selection implements the server half of the ICCCM selection protocol
// in the simplified form Xt exposes (XtOwnSelection / XtGetSelection-
// Value): an owner window plus a conversion callback per selection atom.
type selection struct {
	owner   WindowID
	convert func(target string) (value string, ok bool)
}

// OwnSelection makes win the owner of the named selection (e.g.
// "PRIMARY"). The convert callback produces the selection value for a
// requested target type ("STRING" is the only target Wafe uses).
func (d *Display) OwnSelection(name string, win WindowID, convert func(target string) (string, bool)) {
	d.selections[name] = &selection{owner: win, convert: convert}
}

// DisownSelection clears ownership if win is the current owner.
func (d *Display) DisownSelection(name string, win WindowID) {
	if s, ok := d.selections[name]; ok && s.owner == win {
		delete(d.selections, name)
	}
}

// ConvertSelection requests the selection value for a target type.
// Unlike the asynchronous X protocol, the headless server resolves the
// conversion synchronously; Xt's callback-style API is layered on top.
func (d *Display) ConvertSelection(name, target string) (string, bool) {
	s, ok := d.selections[name]
	if !ok || s.convert == nil {
		return "", false
	}
	return s.convert(target)
}
