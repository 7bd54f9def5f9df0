package core

import (
	"strconv"
	"strings"

	"wafe/internal/tcl"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

// actionEventName maps an event type to the %t expansion. Only the six
// event types in the paper's table are named; everything else expands
// to "unknown".
func actionEventName(t xproto.EventType) string {
	switch t {
	case xproto.ButtonPress:
		return "ButtonPress"
	case xproto.ButtonRelease:
		return "ButtonRelease"
	case xproto.KeyPress:
		return "KeyPress"
	case xproto.KeyRelease:
		return "KeyRelease"
	case xproto.EnterNotify:
		return "EnterNotify"
	case xproto.LeaveNotify:
		return "LeaveNotify"
	}
	return "unknown"
}

func isButtonEvent(t xproto.EventType) bool {
	return t == xproto.ButtonPress || t == xproto.ButtonRelease
}

func isKeyEvent(t xproto.EventType) bool {
	return t == xproto.KeyPress || t == xproto.KeyRelease
}

func isPercentEvent(t xproto.EventType) bool {
	switch t {
	case xproto.ButtonPress, xproto.ButtonRelease, xproto.KeyPress, xproto.KeyRelease,
		xproto.EnterNotify, xproto.LeaveNotify:
		return true
	}
	return false
}

// ExpandActionPercent substitutes the exec-action percent codes of the
// paper's table into a command string:
//
//	%t event type   %w widget      %b button number
//	%x %y           window coords  %X %Y root coords
//	%a ascii char   %k keycode     %s keysym
//
// Codes that are invalid for the event type expand to the empty string
// ("it is the programmer's responsibility to ensure ... a percent code
// substitution occurs only with a valid event type").
func ExpandActionPercent(cmd string, w *xt.Widget, ev *xproto.Event) string {
	if !strings.ContainsRune(cmd, '%') {
		return cmd
	}
	var b strings.Builder
	b.Grow(len(cmd))
	start := 0
	for i := 0; i < len(cmd); i++ {
		if cmd[i] != '%' || i+1 >= len(cmd) {
			continue
		}
		b.WriteString(cmd[start:i])
		i++
		expandActionCode(&b, cmd[i], w, ev)
		start = i + 1
	}
	b.WriteString(cmd[start:])
	return b.String()
}

// expandActionCode writes the expansion of one exec-action percent code.
func expandActionCode(b *strings.Builder, code byte, w *xt.Widget, ev *xproto.Event) {
	if ev == nil {
		if code == '%' {
			b.WriteByte('%')
		} else if code == 'w' {
			b.WriteString(w.Name)
		}
		return
	}
	switch code {
	case '%':
		b.WriteByte('%')
	case 't':
		b.WriteString(actionEventName(ev.Type))
	case 'w':
		b.WriteString(w.Name)
	case 'b':
		if isButtonEvent(ev.Type) {
			b.WriteString(strconv.Itoa(ev.Button))
		}
	case 'x':
		if isPercentEvent(ev.Type) {
			b.WriteString(strconv.Itoa(ev.X))
		}
	case 'y':
		if isPercentEvent(ev.Type) {
			b.WriteString(strconv.Itoa(ev.Y))
		}
	case 'X':
		if isPercentEvent(ev.Type) {
			b.WriteString(strconv.Itoa(ev.XRoot))
		}
	case 'Y':
		if isPercentEvent(ev.Type) {
			b.WriteString(strconv.Itoa(ev.YRoot))
		}
	case 'a':
		if isKeyEvent(ev.Type) && ev.Rune != 0 {
			b.WriteString(string(ev.Rune))
		}
	case 'k':
		if isKeyEvent(ev.Type) {
			b.WriteString(strconv.Itoa(ev.Keycode))
		}
	case 's':
		if isKeyEvent(ev.Type) {
			b.WriteString(ev.Keysym)
		}
	default:
		// Unknown codes pass through untouched.
		b.WriteByte('%')
		b.WriteByte(code)
	}
}

// ExpandBackendPercent substitutes the backend lifecycle percent codes
// into an onBackendExit / onBackendRestart script. The code→value map
// comes from the frontend's supervisor:
//
//	%p pid   %n restart count   %r exit class   %x exit status
//	%u uptime (ms)
//
// Codes not in the map pass through untouched; %% is a literal percent.
// The scan follows the other expansion functions exactly: a '%'
// introduces a code only when a byte follows it.
func ExpandBackendPercent(script string, vals map[byte]string) string {
	if !strings.ContainsRune(script, '%') {
		return script
	}
	var b strings.Builder
	b.Grow(len(script))
	start := 0
	for i := 0; i < len(script); i++ {
		if script[i] != '%' || i+1 >= len(script) {
			continue
		}
		b.WriteString(script[start:i])
		i++
		switch c := script[i]; {
		case c == '%':
			b.WriteByte('%')
		default:
			if v, ok := vals[c]; ok {
				b.WriteString(v)
			} else {
				b.WriteByte('%')
				b.WriteByte(c)
			}
		}
		start = i + 1
	}
	b.WriteString(script[start:])
	return b.String()
}

// percentSegment is one piece of a scanned script: either a literal run
// (code == 0) or a single percent code.
type percentSegment struct {
	lit  string
	code byte
}

// PercentScript is a callback or action script scanned for percent
// codes once, at registration time. A script without any percent code
// is static: it carries a compiled *tcl.Script so each invocation skips
// both the expansion scan and the parse. Scripts with codes keep the
// literal/code segment list, so per-event expansion only substitutes —
// it never rescans the source.
type PercentScript struct {
	Source   string
	segs     []percentSegment
	compiled *tcl.Script // non-nil iff the script has no percent codes
}

// NewPercentScript scans src. The segmentation follows the expansion
// functions exactly: a '%' introduces a code only when a byte follows
// it; a trailing lone '%' stays literal.
func NewPercentScript(src string) *PercentScript { return newPercentScript(src, tcl.Compile) }

// percentScript is NewPercentScript for a script this session runs: a
// static script is compiled by the session's interpreter, which owns it.
func (w *Wafe) percentScript(src string) *PercentScript {
	return newPercentScript(src, w.Interp.Compile)
}

func newPercentScript(src string, compile func(string) (*tcl.Script, error)) *PercentScript {
	p := &PercentScript{Source: src}
	static := true
	start := 0
	for i := 0; i < len(src); i++ {
		if src[i] != '%' || i+1 >= len(src) {
			continue
		}
		if i > start {
			p.segs = append(p.segs, percentSegment{lit: src[start:i]})
		}
		i++
		p.segs = append(p.segs, percentSegment{code: src[i]})
		static = false
		start = i + 1
	}
	if start < len(src) {
		p.segs = append(p.segs, percentSegment{lit: src[start:]})
	}
	if static {
		// A malformed script still compiles to an evaluable prefix that
		// replays the parse error, so the compiled path is always safe.
		p.compiled, _ = compile(src)
	}
	return p
}

// Compiled returns the pre-compiled script, or nil when the script has
// percent codes and must be expanded per event.
func (p *PercentScript) Compiled() *tcl.Script { return p.compiled }

// Codes returns the percent codes the script uses, in order of
// appearance (with duplicates). Static scripts return nil. The
// wafecheck linter validates these against the known code sets below.
func (p *PercentScript) Codes() []byte {
	var out []byte
	for _, s := range p.segs {
		if s.code != 0 {
			out = append(out, s.code)
		}
	}
	return out
}

// ExpandWith substitutes every percent code through fn, leaving
// literal segments untouched ("%%" is always a literal percent).
// Static analysis uses it to turn a percent script into plain Tcl by
// substituting placeholder values.
func (p *PercentScript) ExpandWith(fn func(code byte) string) string {
	if p.compiled != nil {
		return p.Source
	}
	var b strings.Builder
	b.Grow(len(p.Source))
	for _, s := range p.segs {
		switch {
		case s.code == 0:
			b.WriteString(s.lit)
		case s.code == '%':
			b.WriteByte('%')
		default:
			b.WriteString(fn(s.code))
		}
	}
	return b.String()
}

// The known percent-code sets, one per expansion context. Each string
// lists the single-character codes valid in that context ('%' itself
// is always valid as the escape for a literal percent).
//
// KnownActionPercentCodes mirrors expandActionCode's switch;
// KnownCallbackPercentCodes is %w plus the single-character CallData
// keys the widget classes publish (List %i/%s, scrollbar %f/%d);
// KnownBackendPercentCodes mirrors the supervisor's value map handed
// to ExpandBackendPercent.
const (
	KnownActionPercentCodes   = "twbxyXYaks%"
	KnownCallbackPercentCodes = "wisfd%"
	KnownBackendPercentCodes  = "pnrxu%"
)

// ExpandAction substitutes the exec-action percent codes; identical to
// ExpandActionPercent on the source.
func (p *PercentScript) ExpandAction(w *xt.Widget, ev *xproto.Event) string {
	if p.compiled != nil {
		return p.Source
	}
	var b strings.Builder
	b.Grow(len(p.Source))
	for _, s := range p.segs {
		if s.code == 0 {
			b.WriteString(s.lit)
			continue
		}
		expandActionCode(&b, s.code, w, ev)
	}
	return b.String()
}

// ExpandCallback substitutes the callback clientData percent codes;
// identical to ExpandCallbackPercent on the source.
func (p *PercentScript) ExpandCallback(w *xt.Widget, data xt.CallData) string {
	if p.compiled != nil {
		return p.Source
	}
	var b strings.Builder
	b.Grow(len(p.Source))
	for _, s := range p.segs {
		if s.code == 0 {
			b.WriteString(s.lit)
			continue
		}
		expandCallbackCode(&b, s.code, w, data)
	}
	return b.String()
}

// ExpandCallbackPercent substitutes callback clientData percent codes.
// %w (the invoking widget) is available for every callback; the other
// codes come from the widget-class-specific CallData — for the Athena
// List widget, %i (index) and %s (active element), per the paper's
// table.
func ExpandCallbackPercent(script string, w *xt.Widget, data xt.CallData) string {
	if !strings.ContainsRune(script, '%') {
		return script
	}
	var b strings.Builder
	b.Grow(len(script))
	start := 0
	for i := 0; i < len(script); i++ {
		if script[i] != '%' || i+1 >= len(script) {
			continue
		}
		b.WriteString(script[start:i])
		i++
		expandCallbackCode(&b, script[i], w, data)
		start = i + 1
	}
	b.WriteString(script[start:])
	return b.String()
}

// expandCallbackCode writes the expansion of one callback clientData
// percent code.
func expandCallbackCode(b *strings.Builder, code byte, w *xt.Widget, data xt.CallData) {
	switch {
	case code == '%':
		b.WriteByte('%')
	case code == 'w':
		b.WriteString(w.Name)
	default:
		if data != nil {
			if v, ok := data[string(code)]; ok {
				b.WriteString(v)
				return
			}
		}
		// Codes not provided by this widget class stay literal.
		b.WriteByte('%')
		b.WriteByte(code)
	}
}
