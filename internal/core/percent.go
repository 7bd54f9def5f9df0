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

// expandActionCode writes the expansion of one exec-action percent code.
func expandActionCode(b *strings.Builder, code byte, w *xt.Widget, ev *xproto.Event) {
	if ev == nil {
		if code == 'w' {
			b.WriteString(w.Name)
		}
		return
	}
	switch code {
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

// percentSegment is one piece of a scanned script: either a literal run
// (code == 0) or a single percent code.
type percentSegment struct {
	lit  string
	code byte
}

// PercentScript is a callback, action or backend lifecycle script
// scanned for percent codes once, at registration time. A script without any percent code
// is static: it carries a compiled *tcl.Script so each invocation skips
// both the expansion scan and the parse. Scripts with codes keep the
// literal/code segment list, so per-event expansion only substitutes —
// it never rescans the source.
type PercentScript struct {
	Source   string
	segs     []percentSegment
	compiled *tcl.Script // non-nil iff the script has no percent codes
}

// NewPercentScript scans src: a '%' introduces a code only when a byte
// follows it, so a trailing lone '%' stays literal. The scan is the
// only place that finds percent codes; every expansion substitutes
// into its segments.
func NewPercentScript(src string) *PercentScript { return newPercentScript(src, tcl.Compile) }

// percentScript is NewPercentScript for a script this session runs: a
// static script is compiled by the session's interpreter, which owns it.
func (w *Wafe) percentScript(src string) *PercentScript {
	return newPercentScript(src, w.Interp.Compile)
}

// evalValues runs a script whose codes ExpandValues substitutes from
// vals; a script without codes runs compiled.
func (w *Wafe) evalValues(p *PercentScript, vals map[byte]string) (string, error) {
	if s := p.Compiled(); s != nil {
		return w.EvalScript(s)
	}
	return w.Eval(p.ExpandValues(vals))
}

// EvalPercent scans src and runs it as evalValues does, for a script
// that runs once, such as the supervisor's onBackendExit.
func (w *Wafe) EvalPercent(src string, vals map[byte]string) (string, error) {
	return w.evalValues(w.percentScript(src), vals)
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

// expand is the one substitution loop over the segments: it writes
// literal runs and "%%" (a literal percent) to b and hands every other
// code to code, which writes its expansion to b. Each caller captures
// b in code, so the builder stays on the caller's stack.
func (p *PercentScript) expand(b *strings.Builder, code func(c byte)) string {
	if p.compiled != nil {
		return p.Source
	}
	b.Grow(len(p.Source))
	for _, s := range p.segs {
		switch s.code {
		case 0:
			b.WriteString(s.lit)
		case '%':
			b.WriteByte('%')
		default:
			code(s.code)
		}
	}
	return b.String()
}

// ExpandWith substitutes every percent code through fn. Static analysis
// uses it to turn a percent script into plain Tcl by substituting
// placeholder values.
func (p *PercentScript) ExpandWith(fn func(code byte) string) string {
	var b strings.Builder
	return p.expand(&b, func(c byte) { b.WriteString(fn(c)) })
}

// The known percent-code sets, one per expansion context. Each string
// lists the single-character codes valid in that context ('%' itself
// is always valid as the escape for a literal percent).
//
// KnownActionPercentCodes mirrors expandActionCode's switch;
// KnownCallbackPercentCodes is %w plus the single-character CallData
// keys the widget classes publish (List %i/%s, scrollbar %f/%d);
// KnownBackendPercentCodes mirrors the value map the supervisor hands
// to ExpandValues.
const (
	KnownActionPercentCodes   = "twbxyXYaks%"
	KnownCallbackPercentCodes = "wisfd%"
	KnownBackendPercentCodes  = "pnrxu%"
)

// ExpandAction substitutes the exec-action percent codes of the
// paper's table:
//
//	%t event type   %w widget      %b button number
//	%x %y           window coords  %X %Y root coords
//	%a ascii char   %k keycode     %s keysym
//
// Codes that are invalid for the event type expand to the empty string
// ("it is the programmer's responsibility to ensure ... a percent code
// substitution occurs only with a valid event type").
func (p *PercentScript) ExpandAction(w *xt.Widget, ev *xproto.Event) string {
	var b strings.Builder
	return p.expand(&b, func(c byte) { expandActionCode(&b, c, w, ev) })
}

// ExpandCallback substitutes the callback clientData percent codes. %w
// (the invoking widget) is available for every callback; the other
// codes come from the widget-class-specific CallData: for the Athena
// List widget, %i (index) and %s (active element), per the paper's
// table.
func (p *PercentScript) ExpandCallback(w *xt.Widget, data xt.CallData) string {
	var b strings.Builder
	return p.expand(&b, func(c byte) { expandCallbackCode(&b, c, w, data) })
}

// ExpandValues substitutes the codes of a context whose values are known
// when the script runs, and leaves codes not in vals literal. The
// contexts are the supervisor's onBackendExit and onBackendRestart
// scripts:
//
//	%p pid   %n restart count   %r exit class   %x exit status
//	%u uptime (ms)
//
// a selection owner's conversion script (%t target), a drag source's
// script (%w widget) and a drop target's script (%w widget, %v the
// dropped value, %x %y the drop position).
func (p *PercentScript) ExpandValues(vals map[byte]string) string {
	var b strings.Builder
	return p.expand(&b, func(c byte) {
		if v, ok := vals[c]; ok {
			b.WriteString(v)
		} else {
			b.WriteByte('%')
			b.WriteByte(c)
		}
	})
}

// expandCallbackCode writes the expansion of one callback clientData
// percent code. Codes the widget class does not provide stay literal.
func expandCallbackCode(b *strings.Builder, code byte, w *xt.Widget, data xt.CallData) {
	if code == 'w' {
		b.WriteString(w.Name)
	} else if v, ok := data[string(code)]; ok {
		b.WriteString(v)
	} else {
		b.WriteByte('%')
		b.WriteByte(code)
	}
}
