// Package xproto implements a headless, in-memory X display server: a
// window tree, an event queue with pointer-crossing semantics, graphics
// contexts drawing into a per-screen framebuffer plus a vector display
// list, fixed-metric fonts, named colours, DECstation-style keycodes and
// ICCCM-flavoured selections.
//
// The real Wafe talks to an X server through Xlib; this package stands in
// for that server so the whole stack runs deterministically offline. The
// Xt layer (internal/xt) is its only intended client, mirroring how Xt
// wraps Xlib.
package xproto

import "fmt"

// EventType enumerates the X event types Wafe's action tables support,
// plus the structural events Xt needs internally.
type EventType int

const (
	NoEvent EventType = iota
	KeyPress
	KeyRelease
	ButtonPress
	ButtonRelease
	MotionNotify
	EnterNotify
	LeaveNotify
	Expose
	MapNotify
	UnmapNotify
	ConfigureNotify
	DestroyNotify
	ClientMessage
	FocusIn
	FocusOut
)

// String returns the X protocol name of the event type.
func (t EventType) String() string {
	switch t {
	case KeyPress:
		return "KeyPress"
	case KeyRelease:
		return "KeyRelease"
	case ButtonPress:
		return "ButtonPress"
	case ButtonRelease:
		return "ButtonRelease"
	case MotionNotify:
		return "MotionNotify"
	case EnterNotify:
		return "EnterNotify"
	case LeaveNotify:
		return "LeaveNotify"
	case Expose:
		return "Expose"
	case MapNotify:
		return "MapNotify"
	case UnmapNotify:
		return "UnmapNotify"
	case ConfigureNotify:
		return "ConfigureNotify"
	case DestroyNotify:
		return "DestroyNotify"
	case ClientMessage:
		return "ClientMessage"
	case FocusIn:
		return "FocusIn"
	case FocusOut:
		return "FocusOut"
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// Modifier bits, matching the X state field layout.
type Modifiers uint16

const (
	ShiftMask   Modifiers = 1 << 0
	LockMask    Modifiers = 1 << 1
	ControlMask Modifiers = 1 << 2
	Mod1Mask    Modifiers = 1 << 3
	Button1Mask Modifiers = 1 << 8
	Button2Mask Modifiers = 1 << 9
	Button3Mask Modifiers = 1 << 10
)

// Event is a decoded X event. Fields are populated according to Type,
// as in XEvent's union.
type Event struct {
	Type   EventType
	Window WindowID

	// Pointer / key position (window relative and root relative).
	X, Y         int
	XRoot, YRoot int

	// ButtonPress/ButtonRelease.
	Button int

	// KeyPress/KeyRelease.
	Keycode int
	Keysym  string
	// Rune is the character generated by the key with the event's
	// modifiers applied; 0 when the key produces no character.
	Rune rune

	State Modifiers

	// Expose / ConfigureNotify geometry.
	Width, Height int

	// Serial increases monotonically per display; used in tests to
	// assert ordering.
	Serial uint64
}

// EventMask selects event categories a window wants delivered.
type EventMask uint32

const (
	KeyPressMask EventMask = 1 << iota
	KeyReleaseMask
	ButtonPressMask
	ButtonReleaseMask
	PointerMotionMask
	EnterWindowMask
	LeaveWindowMask
	ExposureMask
	StructureNotifyMask
	FocusChangeMask
)

// MaskFor returns the event mask bit that selects delivery of t.
func MaskFor(t EventType) EventMask {
	switch t {
	case KeyPress:
		return KeyPressMask
	case KeyRelease:
		return KeyReleaseMask
	case ButtonPress:
		return ButtonPressMask
	case ButtonRelease:
		return ButtonReleaseMask
	case MotionNotify:
		return PointerMotionMask
	case EnterNotify:
		return EnterWindowMask
	case LeaveNotify:
		return LeaveWindowMask
	case Expose:
		return ExposureMask
	case MapNotify, UnmapNotify, ConfigureNotify, DestroyNotify:
		return StructureNotifyMask
	case FocusIn, FocusOut:
		return FocusChangeMask
	}
	return 0
}
