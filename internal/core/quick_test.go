package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wafe/internal/spec"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// Property: percent expansion never panics, preserves %% as %, and is
// the identity on strings without percent signs.
func TestActionPercentExpansionProperties(t *testing.T) {
	w := NewTest()
	eval(t, w, "label l topLevel")
	wid := w.App.WidgetByName("l")
	events := []xproto.Event{
		{Type: xproto.ButtonPress, Button: 2, X: 1, Y: 2, XRoot: 3, YRoot: 4},
		{Type: xproto.KeyPress, Keycode: 198, Keysym: "w", Rune: 'w'},
		{Type: xproto.EnterNotify, X: 5, Y: 6},
		{Type: xproto.Expose},
	}
	f := func(raw []byte, evIdx uint8) bool {
		s := string(raw)
		if len(s) > 80 {
			return true
		}
		ev := events[int(evIdx)%len(events)]
		out := NewPercentScript(s).ExpandAction(wid, &ev)
		if !strings.ContainsRune(s, '%') && out != s {
			t.Logf("identity violated: %q → %q", s, out)
			return false
		}
		if strings.ReplaceAll(s, "%%", "") == s && strings.Count(out, "%%") > strings.Count(s, "%%") {
			return false
		}
		// Escaped percents collapse.
		if s == "a%%b" && out != "a%b" {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: callback percent expansion substitutes exactly the keys the
// CallData provides and leaves other codes literal.
func TestCallbackPercentExpansionProperties(t *testing.T) {
	w := NewTest()
	eval(t, w, "label cb topLevel")
	wid := w.App.WidgetByName("cb")
	f := func(idx uint16, item string) bool {
		if strings.ContainsAny(item, "%\x00") || len(item) > 40 {
			return true
		}
		data := xt.CallData{"i": "7", "s": item}
		out := NewPercentScript("w=%w i=%i s=%s q=%q").ExpandCallback(wid, data)
		want := "w=cb i=7 s=" + item + " q=%q"
		if out != want {
			t.Logf("got %q want %q", out, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// scanExpand is the direct-scan reference for percent expansion: it
// walks src byte by byte and hands each code after a '%' to code. "%%"
// is a literal percent, and a '%' with no byte after it stays literal.
func scanExpand(src string, code func(b *strings.Builder, c byte)) string {
	var b strings.Builder
	for i := 0; i < len(src); i++ {
		switch {
		case src[i] != '%' || i+1 == len(src):
			b.WriteByte(src[i])
		case src[i+1] == '%':
			b.WriteByte('%')
			i++
		default:
			code(&b, src[i+1])
			i++
		}
	}
	return b.String()
}

// TestPercentExpansionMatchesDirectScan: expanding a script scanned
// once into segments gives what scanning the source directly gives, for
// the action, callback and backend code sets, on sources with "%%", a
// trailing '%', unknown codes and no codes at all.
func TestPercentExpansionMatchesDirectScan(t *testing.T) {
	w := NewTest()
	eval(t, w, "label l topLevel")
	wid := w.App.WidgetByName("l")
	events := []*xproto.Event{
		nil,
		{Type: xproto.ButtonPress, Button: 2, X: 1, Y: 2, XRoot: 3, YRoot: 4},
		{Type: xproto.KeyRelease, Keycode: 198, Keysym: "w", Rune: 'w'},
		{Type: xproto.LeaveNotify, X: 5, Y: 6},
		{Type: xproto.Expose},
	}
	data := xt.CallData{"i": "7", "s": "beta", "f": "0.5"}
	vals := map[byte]string{'p': "4321", 'n': "2", 'r': "crash", 'x': "42", 'u': "1500"}
	literal := func(b *strings.Builder, c byte) {
		b.WriteByte('%')
		b.WriteByte(c)
	}
	check := func(src string) {
		ps := NewPercentScript(src)
		for _, ev := range events {
			want := scanExpand(src, func(b *strings.Builder, c byte) { expandActionCode(b, c, wid, ev) })
			if got := ps.ExpandAction(wid, ev); got != want {
				t.Errorf("ExpandAction(%q, %v) = %q, want %q", src, ev, got, want)
			}
		}
		want := scanExpand(src, func(b *strings.Builder, c byte) {
			if c == 'w' {
				b.WriteString(wid.Name)
			} else if v, ok := data[string(c)]; ok {
				b.WriteString(v)
			} else {
				literal(b, c)
			}
		})
		if got := ps.ExpandCallback(wid, data); got != want {
			t.Errorf("ExpandCallback(%q) = %q, want %q", src, got, want)
		}
		want = scanExpand(src, func(b *strings.Builder, c byte) {
			if v, ok := vals[c]; ok {
				b.WriteString(v)
			} else {
				literal(b, c)
			}
		})
		if got := ps.ExpandValues(vals); got != want {
			t.Errorf("ExpandValues(%q) = %q, want %q", src, got, want)
		}
	}
	for _, src := range []string{"", "%", "%%", "%%%", "a%", "%%x%", "%q", "%w%", "echo 100%% %p%n", "no codes"} {
		check(src)
	}
	rng := rand.New(rand.NewSource(1))
	const alphabet = "%%%%twbxyXYaksispnrxuq {}$;\n"
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(16))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(b))
	}
}

// Property: the naming rule is idempotent on its own output (stripping
// a prefix once yields a name with no further prefix), so a Wafe
// command with no toolkit counterpart can be specified by its own name.
func TestCommandNameIdempotentProperty(t *testing.T) {
	inputs := []string{
		"XtDestroyWidget", "XawListChange", "XmTextInsert", "XFlush",
		"XtPopup", "XawFormAllowResize", "XmCommandError", "XtAddCallback",
	}
	for _, c := range commandTable {
		inputs = append(inputs, c.meta.Name)
	}
	for _, in := range inputs {
		once := spec.CommandName(in)
		twice := spec.CommandName(once)
		if once != twice {
			t.Errorf("CommandName not idempotent: %q → %q → %q", in, once, twice)
		}
	}
}

// Property: resource round trip through sV/gV preserves arbitrary label
// strings (the string-only boundary).
func TestLabelRoundTripProperty(t *testing.T) {
	w := NewTest()
	eval(t, w, "label rt topLevel")
	wid := w.App.WidgetByName("rt")
	f := func(raw []byte) bool {
		s := string(raw)
		if strings.ContainsRune(s, 0) || len(s) > 60 {
			return true
		}
		if err := wid.SetValues("label", s); err != nil {
			return false
		}
		got, err := wid.GetValue("label")
		return err == nil && got == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: every registered creation command yields a widget whose
// ResourceNames contain the Core prefix in the documented order.
func TestAllClassesResourcePrefixProperty(t *testing.T) {
	w := NewTest()
	prefix := []string{"destroyCallback", "ancestorSensitive", "x", "y", "width", "height"}
	i := 0
	for _, class := range w.WidgetSetClasses() {
		i++
		name := "p" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		parent := w.TopLevel
		if class.IsSubclassOf(classByName(w, "Sme")) && class.Name != "SimpleMenu" {
			continue // menu entries need a menu parent; covered elsewhere
		}
		wid, err := w.App.CreateWidget(name, class, parent, nil, false)
		if err != nil {
			t.Errorf("create %s: %v", class.Name, err)
			continue
		}
		names := wid.ResourceNames()
		for j, want := range prefix {
			if j >= len(names) || names[j] != want {
				t.Errorf("%s resource %d = %v, want %q", class.Name, j, names[:min(6, len(names))], want)
				break
			}
		}
	}
}

func classByName(w *Wafe, name string) *xt.Class {
	for _, c := range w.WidgetSetClasses() {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
