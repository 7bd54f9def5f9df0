package xproto

// Keymap maps hardware keycodes to keysyms and characters. The default
// table reproduces the DECstation LK401 codes visible in the paper's
// xev example: typing "w!" prints
//
//	198 w w
//	174 Shift_L
//	197 ! exclam
//
// i.e. keycode 198 is the W key, 174 the left shift, 197 the 1/! key.
type Keymap struct {
	// keys maps keycode → (unshifted, shifted) keysym entries.
	keys map[int]keyEntry

	// byRune maps a character to the stroke that produces it.
	byRune map[rune]Stroke

	// ShiftKeycode is the keycode of Shift_L.
	ShiftKeycode int
	// ReturnKeycode is the keycode of the Return key.
	ReturnKeycode int
}

type keyEntry struct {
	plain, shifted sym
}

type sym struct {
	name string
	r    rune // 0 if the keysym generates no character
}

// Stroke describes how to produce a character: which keycode to press
// and whether shift must be held.
type Stroke struct {
	Keycode int
	Shift   bool
}

// DefaultKeymap builds the LK401-flavoured keymap.
func DefaultKeymap() *Keymap {
	k := &Keymap{
		keys:   make(map[int]keyEntry),
		byRune: make(map[rune]Stroke),
	}
	add := func(code int, plainName string, plainRune rune, shiftName string, shiftRune rune) {
		k.keys[code] = keyEntry{
			plain:   sym{plainName, plainRune},
			shifted: sym{shiftName, shiftRune},
		}
		if plainRune != 0 {
			if _, dup := k.byRune[plainRune]; !dup {
				k.byRune[plainRune] = Stroke{Keycode: code}
			}
		}
		if shiftRune != 0 {
			if _, dup := k.byRune[shiftRune]; !dup {
				k.byRune[shiftRune] = Stroke{Keycode: code, Shift: true}
			}
		}
	}
	// Letter row codes follow the LK401 layout region around the
	// documented w=198; letters produce lower case unshifted.
	letterCodes := map[rune]int{
		'a': 194, 'b': 217, 'c': 206, 'd': 205, 'e': 204, 'f': 210,
		'g': 216, 'h': 221, 'i': 230, 'j': 226, 'k': 231, 'l': 236,
		'm': 227, 'n': 222, 'o': 235, 'p': 240, 'q': 193, 'r': 209,
		's': 199, 't': 215, 'u': 225, 'v': 211, 'w': 198, 'x': 200,
		'y': 220, 'z': 195,
	}
	for r, code := range letterCodes {
		upper := r - 32
		add(code, string(r), r, string(upper), upper)
	}
	// Digit row: 1/!, 2/@, ... with 1/! at the documented keycode 197.
	digitRow := []struct {
		code         int
		plain, shift rune
		pn, sn       string
	}{
		{197, '1', '!', "1", "exclam"},
		{203, '2', '@', "2", "at"},
		{208, '3', '#', "3", "numbersign"},
		{214, '4', '$', "4", "dollar"},
		{219, '5', '%', "5", "percent"},
		{224, '6', '^', "6", "asciicircum"},
		{229, '7', '&', "7", "ampersand"},
		{234, '8', '*', "8", "asterisk"},
		{239, '9', '(', "9", "parenleft"},
		{245, '0', ')', "0", "parenright"},
	}
	for _, d := range digitRow {
		add(d.code, d.pn, d.plain, d.sn, d.shift)
	}
	// Punctuation.
	add(249, "minus", '-', "underscore", '_')
	add(250, "equal", '=', "plus", '+')
	add(im('['), "bracketleft", '[', "braceleft", '{')
	add(im(']'), "bracketright", ']', "braceright", '}')
	add(im(';'), "semicolon", ';', "colon", ':')
	add(im('\''), "apostrophe", '\'', "quotedbl", '"')
	add(im(','), "comma", ',', "less", '<')
	add(im('.'), "period", '.', "greater", '>')
	add(im('/'), "slash", '/', "question", '?')
	add(im('\\'), "backslash", '\\', "bar", '|')
	add(im('`'), "grave", '`', "asciitilde", '~')
	add(212, "space", ' ', "space", ' ')
	// Control keys. LK401 Shift_L is keycode 174 per the paper.
	k.keys[174] = keyEntry{plain: sym{"Shift_L", 0}, shifted: sym{"Shift_L", 0}}
	k.ShiftKeycode = 174
	k.keys[175] = keyEntry{plain: sym{"Control_L", 0}, shifted: sym{"Control_L", 0}}
	k.keys[189] = keyEntry{plain: sym{"Return", '\r'}, shifted: sym{"Return", '\r'}}
	k.ReturnKeycode = 189
	k.byRune['\r'] = Stroke{Keycode: 189}
	k.byRune['\n'] = Stroke{Keycode: 189}
	k.keys[188] = keyEntry{plain: sym{"BackSpace", '\b'}, shifted: sym{"BackSpace", '\b'}}
	k.byRune['\b'] = Stroke{Keycode: 188}
	k.keys[190] = keyEntry{plain: sym{"Tab", '\t'}, shifted: sym{"Tab", '\t'}}
	k.byRune['\t'] = Stroke{Keycode: 190}
	k.keys[187] = keyEntry{plain: sym{"Escape", 0x1b}, shifted: sym{"Escape", 0x1b}}
	k.keys[170] = keyEntry{plain: sym{"Delete", 0x7f}, shifted: sym{"Delete", 0x7f}}
	// Arrow keys.
	k.keys[167] = keyEntry{plain: sym{"Left", 0}, shifted: sym{"Left", 0}}
	k.keys[168] = keyEntry{plain: sym{"Right", 0}, shifted: sym{"Right", 0}}
	k.keys[169] = keyEntry{plain: sym{"Up", 0}, shifted: sym{"Up", 0}}
	k.keys[166] = keyEntry{plain: sym{"Down", 0}, shifted: sym{"Down", 0}}
	return k
}

// im derives deterministic keycodes for punctuation not documented in
// the paper, in an unused band of the LK401 space.
func im(r rune) int { return 64 + int(r)%64 }

// Lookup resolves keycode+shift to (keysym name, generated rune), as
// XLookupString does.
func (k *Keymap) Lookup(keycode int, shift bool) (string, rune) {
	e, ok := k.keys[keycode]
	if !ok {
		return "", 0
	}
	if shift {
		return e.shifted.name, e.shifted.r
	}
	return e.plain.name, e.plain.r
}

// StrokesFor returns the key stroke producing the rune.
func (k *Keymap) StrokesFor(r rune) (Stroke, bool) {
	s, ok := k.byRune[r]
	return s, ok
}
