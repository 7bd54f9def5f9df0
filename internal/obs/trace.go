package obs

import (
	"sync"
	"sync/atomic"
)

// DefaultRingSize is the span ring capacity used when none is
// configured (--trace-ring / traceOn <n>).
const DefaultRingSize = 256

// Trace is the tracing half of the observability layer: a bounded ring
// of completed spans (span.go) plus an optional echo sink (the
// terminal, in frontend mode), mirroring the original Wafe's
// debug/echo mode. Recording is gated by an atomic flag so a disabled
// tracer costs one atomic load per site.
type Trace struct {
	enabled atomic.Bool
	seq     atomic.Uint64

	// cur is the id of the innermost open span — the parent the next
	// StartSpan/Instant links to. Written only by the session's event
	// loop goroutine (span sites are single-threaded per session);
	// atomic so concurrent snapshot readers stay race-free.
	cur atomic.Uint64

	// mu guards everything below. The ring is allocated on the first
	// recorded span; next is the slot the next span overwrites, and
	// full says the ring has wrapped.
	mu       sync.Mutex
	ring     []Span
	next     int
	full     bool
	sink     func(line string)
	ringSize int    // 0 → DefaultRingSize, set by --trace-ring / traceOn <n>
	session  string // the session id flight dumps name
}

// Enabled reports whether tracing is on.
func (t *Trace) Enabled() bool { return t.enabled.Load() }

// SetEnabled turns tracing on or off (the traceOn/traceOff commands).
func (t *Trace) SetEnabled(on bool) { t.enabled.Store(on) }

// SetSink directs echoed trace lines to fn (nil silences the echo;
// spans are still recorded).
func (t *Trace) SetSink(fn func(line string)) {
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// SetRingSize configures the capacity of the span ring (n <= 0
// restores DefaultRingSize). The recorded spans are dropped; the usual
// sequence is `traceOn <n>` before any recording.
func (t *Trace) SetRingSize(n int) {
	if n < 0 {
		n = 0
	}
	t.mu.Lock()
	t.ringSize = n
	t.ring, t.next, t.full = nil, 0, false
	t.mu.Unlock()
}

// SetSession names the session this trace belongs to — the serve
// layer sets the session id before the session loop starts.
func (t *Trace) SetSession(sid string) {
	t.mu.Lock()
	t.session = sid
	t.mu.Unlock()
}

// Session returns the session id.
func (t *Trace) Session() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.session
}

// Echo writes one trace line to the sink as
//
//	wafe: trace <kind>: <text>
//
// It records nothing — the spans hold what ran — and is a no-op unless
// tracing is enabled.
func (t *Trace) Echo(kind, text string) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink("wafe: trace " + kind + ": " + text)
	}
}
