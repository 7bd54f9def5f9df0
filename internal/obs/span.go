package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one timed region of a request: a backend protocol line, a
// top-level tcl eval, a proc call, an xt dispatch/callback/action, or
// an instant (zero duration) such as an xproto request or the script a
// callback or action fired. Parent links make the chain a tree rooted
// at the protocol line (Parent == 0), so a slow line can be decomposed
// into the eval → dispatch → request path that caused it.
type Span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Kind   string        `json:"kind"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  string        `json:"attrs,omitempty"`
}

// SpanCtx is the context-free propagation handle StartSpan returns: a
// plain value the call site keeps on its stack, no context plumbing
// through layer APIs. The zero SpanCtx is the disabled no-op — tracing
// off (or no tracer attached) yields id 0 and End does nothing, so
// call sites need no enabled checks beyond the one StartSpan performs.
type SpanCtx struct {
	t      *Trace
	id     uint64
	parent uint64
	kind   string
	name   string
	start  time.Time
}

// StartSpan opens a span and makes it the current parent for spans
// started until End. Disabled tracing costs exactly one atomic load.
//
// Span nesting relies on each session being single-threaded through
// its event loop (the same invariant the interpreter itself depends
// on): all StartSpan/End pairs for one Trace happen on that goroutine,
// so the parent swap is well-ordered; the atomic keeps concurrent
// readers (Spans, the debug endpoint) race-free.
func (t *Trace) StartSpan(kind, name string) SpanCtx {
	if !t.enabled.Load() {
		return SpanCtx{}
	}
	id := t.seq.Add(1)
	parent := t.cur.Swap(id)
	return SpanCtx{t: t, id: id, parent: parent, kind: kind, name: name, start: time.Now()}
}

// End closes the span, restores its parent as current, and records it.
// A zero SpanCtx (disabled at StartSpan time) is a no-op.
func (c SpanCtx) End() { c.EndAttrs("") }

// EndAttrs is End with a free-form attribute string recorded on the
// span (callers build attrs only after checking Active, so the
// disabled path never pays the formatting).
func (c SpanCtx) EndAttrs(attrs string) {
	if c.id == 0 {
		return
	}
	c.t.cur.CompareAndSwap(c.id, c.parent)
	c.t.record(Span{
		ID:     c.id,
		Parent: c.parent,
		Kind:   c.kind,
		Name:   c.name,
		Start:  c.start,
		Dur:    time.Since(c.start),
		Attrs:  attrs,
	})
}

// Instant records a zero-duration span parented to the current span —
// a point event in the tree (one xproto request, a fired script, a
// supervisor lifecycle transition). Disabled tracing costs one atomic
// load.
func (t *Trace) Instant(kind, name string) {
	if !t.enabled.Load() {
		return
	}
	t.record(Span{
		ID:     t.seq.Add(1),
		Parent: t.cur.Load(),
		Kind:   kind,
		Name:   name,
		Start:  time.Now(),
	})
}

// record writes a finished span into the ring, overwriting the oldest
// once the ring is full.
func (t *Trace) record(sp Span) {
	t.mu.Lock()
	if t.ring == nil {
		n := t.ringSize
		if n <= 0 {
			n = DefaultRingSize
		}
		t.ring = make([]Span, n)
	}
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Spans returns the completed spans, oldest first.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.ring[:t.next]...)
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Clear drops all recorded spans (the `trace clear` command) without
// touching the enabled flag or the ring size.
func (t *Trace) Clear() {
	t.mu.Lock()
	t.ring, t.next, t.full = nil, 0, false
	t.mu.Unlock()
	t.cur.Store(0)
}

// RenderSpanTree renders the span forest (or, when root != 0, the
// subtree under that id) as an indented multi-line listing:
//
//	line "sV b label x" 812µs (id 7)
//	  eval "sV b label x" 790µs (id 8)
//	    callback "b.activate" 310µs (id 9)
//
// Spans whose parent was evicted from the ring are promoted to roots
// so nothing recorded is hidden.
func RenderSpanTree(spans []Span, root uint64) string {
	byID := make(map[uint64]bool, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	for _, sp := range spans {
		switch {
		case root != 0 && sp.ID == root:
			roots = append(roots, sp)
		case root != 0:
			children[sp.Parent] = append(children[sp.Parent], sp)
		case sp.Parent == 0 || !byID[sp.Parent]:
			roots = append(roots, sp)
		default:
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	var b strings.Builder
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s %q %dµs (id %d)\n", sp.Kind, sp.Name, sp.Dur.Microseconds(), sp.ID)
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return strings.TrimRight(b.String(), "\n")
}
