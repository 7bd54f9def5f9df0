package xt

import "fmt"

// GrabKind is XtGrabKind: the user-event constraint a popup imposes.
type GrabKind int

const (
	// GrabNone pops up without constraining events.
	GrabNone GrabKind = iota
	// GrabNonexclusive adds the shell to the grab list but still
	// delivers events to earlier grab windows.
	GrabNonexclusive
	// GrabExclusive directs all user events to the popup.
	GrabExclusive
)

// ParseGrabKind maps the Wafe predefined-callback names.
func ParseGrabKind(s string) (GrabKind, error) {
	switch s {
	case "none":
		return GrabNone, nil
	case "nonexclusive":
		return GrabNonexclusive, nil
	case "exclusive":
		return GrabExclusive, nil
	}
	return 0, fmt.Errorf("xt: bad grab kind %q", s)
}

// Popup realizes and maps a popup shell (XtPopup). The first popup
// lays the shell's subtree out and creates its windows; a realized
// shell keeps its geometry current and is only mapped again. With an
// exclusive grab all pointer events are redirected to the shell.
func (w *Widget) Popup(kind GrabKind) error {
	if !w.Class.Shell {
		return fmt.Errorf("xt: popup on non-shell widget %q", w.Name)
	}
	if w.poppedUp {
		return nil
	}
	if !w.realized {
		w.callChangeManaged()
		w.realizeTree()
	}
	w.poppedUp = true
	w.grabKind = kind
	w.display.MapWindow(w.window)
	switch kind {
	case GrabExclusive, GrabNonexclusive:
		w.display.GrabPointer(w.window)
	}
	return nil
}

// Popdown unmaps a popup shell and releases its grab (XtPopdown).
func (w *Widget) Popdown() error {
	if !w.Class.Shell {
		return fmt.Errorf("xt: popdown on non-shell widget %q", w.Name)
	}
	if !w.poppedUp {
		return nil
	}
	w.poppedUp = false
	if w.realized {
		w.display.UnmapWindow(w.window)
	}
	if w.grabKind == GrabExclusive || w.grabKind == GrabNonexclusive {
		if w.display.GrabbedWindow() == w.window {
			w.display.UngrabPointer()
		}
	}
	w.grabKind = GrabNone
	return nil
}

// PositionShell moves a shell to root coordinates (used by the
// "position" predefined callback).
func (w *Widget) PositionShell(x, y int) error {
	if !w.Class.Shell {
		return fmt.Errorf("xt: position on non-shell widget %q", w.Name)
	}
	w.setExplicit(QX, x)
	w.setExplicit(QY, y)
	if w.realized {
		w.display.ConfigureWindow(w.window, x, y, w.Int(QWidth), w.Int(QHeight))
	}
	return nil
}

// PositionShellUnderPointer places the shell at the current pointer
// position ("positionCursor" predefined callback).
func (w *Widget) PositionShellUnderPointer() error {
	x, y, _ := w.display.Pointer()
	return w.PositionShell(x, y)
}
