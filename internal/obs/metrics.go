package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// TclMetrics instruments the interpreter: top-level eval latency,
// per-command dispatch counts, and the PR 1 intern caches.
type TclMetrics struct {
	Evals             Counter
	EvalLatency       Histogram
	ScriptCacheHits   Counter
	ScriptCacheMisses Counter
	ExprCacheHits     Counter
	ExprCacheMisses   Counter
	Dispatch          CounterVec // per command name
}

// XtMetrics instruments the event loop: dispatch latency, queue
// depths, and callback/action firings.
type XtMetrics struct {
	EventsDispatched Counter
	DispatchLatency  Histogram
	EventQueueDepth  Gauge // X event queue observed in Pump
	PostedQueueDepth Gauge // posted-closure channel observed in Post
	CallbacksFired   Counter
	ActionsFired     Counter

	// RedrawClipped/RedrawFull split widget repaints by path: clipped
	// partial redraws against unconditional full-window repaints.
	RedrawClipped Counter
	RedrawFull    Counter

	// XrmSearchListHits/Misses count resource-database search-list
	// cache hits against (re)builds; XrmGeneration mirrors the
	// database generation counter whose bumps (mergeResources, -xrm,
	// resource files) invalidate cached search lists.
	XrmSearchListHits   Counter
	XrmSearchListMisses Counter
	XrmGeneration       Gauge
}

// XprotoMetrics counts protocol requests per operation (draw requests,
// window operations), queued events, and the damage-region pipeline:
// accumulated dirty rects, Expose mutations saved by coalescing, and
// expose requests dropped because the target window does not select
// ExposureMask (or does not exist).
type XprotoMetrics struct {
	Requests         CounterVec // per op name
	EventsQueued     Counter
	DamageRects      Counter
	ExposesCoalesced Counter
	ExposesDropped   Counter
}

// FrontendMetrics accounts the pipe protocol: line classes, per-line
// handling latency, eval failures, mass-channel throughput, and the
// backend lifecycle (exit classes, supervised restarts, uptime).
type FrontendMetrics struct {
	CommandLines  Counter
	PassedLines   Counter
	OverlongLines Counter
	EvalErrors    Counter
	LineLatency   Histogram
	MassTransfers Counter
	MassBytes     Counter
	// MassReads counts deliveries from the data channel, one per read
	// that returned bytes: over MassTransfers, the reads a transfer
	// took.
	MassReads Counter

	// ReadErrors counts command-pipe read failures — previously
	// indistinguishable from clean EOF.
	ReadErrors Counter
	// BackendExits classifies every backend departure:
	// clean / crash / readerr / spawn.
	BackendExits CounterVec
	// BackendRestarts counts supervised respawns.
	BackendRestarts Counter
	// BackendUptime records each completed backend life in
	// milliseconds (the Max watermark is the longest life).
	BackendUptime Gauge
}

// Metrics is the aggregate registry one Wafe instance threads through
// its layers. Layers hold pointers to their sub-struct; a nil pointer
// (observability disabled) keeps every instrumented path zero-cost.
type Metrics struct {
	Tcl      TclMetrics
	Xt       XtMetrics
	Xproto   XprotoMetrics
	Frontend FrontendMetrics
	Trace    Trace

	// Extra, when non-nil, contributes additional samples to Snapshot —
	// the serve layer points a session's registry at the server
	// aggregates so statistics/metricsDump inside one session report
	// the whole process too. Set before the session runs, never
	// mutated afterwards. Aggregators must use SnapshotBase to avoid
	// recursing through it.
	Extra func() []Sample

	// Flight, when non-nil, is the process-wide flight recorder the
	// anomaly trip sites (line latency, session panic, backend crash)
	// dump through. Like Extra it is set before the session runs.
	Flight *FlightRecorder
}

// New returns an empty metrics registry.
func New() *Metrics { return &Metrics{} }

// NewOr returns m when non-nil, else a fresh registry — the pattern a
// layer uses to accept an optional caller-owned registry (the serve
// layer's per-session metrics) while guaranteeing a usable one.
func NewOr(m *Metrics) *Metrics {
	if m == nil {
		return New()
	}
	return m
}

// Sample is one named metric value in a snapshot.
type Sample struct {
	Name  string
	Value int64
}

func histSamples(prefix string, h *Histogram, out []Sample) []Sample {
	return append(out,
		Sample{prefix + ".count", h.Count()},
		Sample{prefix + ".mean_ns", h.Mean()},
		Sample{prefix + ".p50_ns", h.Quantile(0.50)},
		Sample{prefix + ".p99_ns", h.Quantile(0.99)},
		Sample{prefix + ".max_ns", h.Max()},
	)
}

func vecSamples(prefix string, v *CounterVec, out []Sample) []Sample {
	snap := v.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, Sample{prefix + "." + k, snap[k]})
	}
	return out
}

// Snapshot returns every metric as an ordered name/value list — the
// statistics command renders it as a Tcl list, the JSON dump as an
// object. Grouped per layer; names are stable and documented in
// docs/protocol.md. Extra samples (serve-mode server aggregates) come
// last.
func (m *Metrics) Snapshot() []Sample {
	out := m.SnapshotBase()
	if m.Extra != nil {
		out = append(out, m.Extra()...)
	}
	return out
}

// SnapshotBase is Snapshot without the Extra samples — what aggregators
// walking many session registries must use.
func (m *Metrics) SnapshotBase() []Sample {
	var out []Sample
	t := &m.Tcl
	out = append(out,
		Sample{"tcl.evals", t.Evals.Load()},
		Sample{"tcl.script_cache.hits", t.ScriptCacheHits.Load()},
		Sample{"tcl.script_cache.misses", t.ScriptCacheMisses.Load()},
		Sample{"tcl.expr_cache.hits", t.ExprCacheHits.Load()},
		Sample{"tcl.expr_cache.misses", t.ExprCacheMisses.Load()},
	)
	out = histSamples("tcl.eval_latency", &t.EvalLatency, out)
	out = vecSamples("tcl.dispatch", &t.Dispatch, out)

	x := &m.Xt
	out = append(out,
		Sample{"xt.events_dispatched", x.EventsDispatched.Load()},
		Sample{"xt.event_queue_depth", x.EventQueueDepth.Load()},
		Sample{"xt.event_queue_depth_max", x.EventQueueDepth.Max()},
		Sample{"xt.posted_queue_depth_max", x.PostedQueueDepth.Max()},
		Sample{"xt.callbacks_fired", x.CallbacksFired.Load()},
		Sample{"xt.actions_fired", x.ActionsFired.Load()},
		Sample{"xt.redraw_clipped", x.RedrawClipped.Load()},
		Sample{"xt.redraw_full", x.RedrawFull.Load()},
		Sample{"xt.xrm_searchlist_hits", x.XrmSearchListHits.Load()},
		Sample{"xt.xrm_searchlist_misses", x.XrmSearchListMisses.Load()},
		Sample{"xt.xrm_generation", x.XrmGeneration.Load()},
	)
	out = histSamples("xt.dispatch_latency", &x.DispatchLatency, out)

	p := &m.Xproto
	out = append(out,
		Sample{"xproto.events_queued", p.EventsQueued.Load()},
		Sample{"xproto.damage_rects", p.DamageRects.Load()},
		Sample{"xproto.exposes_coalesced", p.ExposesCoalesced.Load()},
		Sample{"xproto.exposes_dropped", p.ExposesDropped.Load()},
	)
	out = vecSamples("xproto.requests", &p.Requests, out)

	f := &m.Frontend
	out = append(out,
		Sample{"frontend.command_lines", f.CommandLines.Load()},
		Sample{"frontend.passed_lines", f.PassedLines.Load()},
		Sample{"frontend.overlong_lines", f.OverlongLines.Load()},
		Sample{"frontend.eval_errors", f.EvalErrors.Load()},
		Sample{"frontend.mass_transfers", f.MassTransfers.Load()},
		Sample{"frontend.mass_bytes", f.MassBytes.Load()},
		Sample{"frontend.mass_reads", f.MassReads.Load()},
		Sample{"frontend.read_errors", f.ReadErrors.Load()},
		Sample{"frontend.backend_restarts", f.BackendRestarts.Load()},
		Sample{"frontend.backend_uptime_ms", f.BackendUptime.Load()},
		Sample{"frontend.backend_uptime_ms_max", f.BackendUptime.Max()},
	)
	out = vecSamples("frontend.backend_exits", &f.BackendExits, out)
	out = histSamples("frontend.line_latency", &f.LineLatency, out)
	return out
}

// Get returns the snapshot value for a metric name (tests).
func (m *Metrics) Get(name string) (int64, bool) {
	for _, s := range m.Snapshot() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// jsonDump is the --metrics-dump / metricsDump document shape.
type jsonDump struct {
	Metrics map[string]int64 `json:"metrics"`
	Trace   []TraceEvent     `json:"trace,omitempty"`
	Spans   []Span           `json:"spans,omitempty"`
}

// DumpTraceCap bounds the trace events and spans embedded in the
// metricsDump JSON: the document travels as one protocol line, so a
// large configured ring (--trace-ring 65536) must not balloon it. The
// most recent entries win; the full rings stay reachable through the
// trace Tcl command and the flight recorder.
const DumpTraceCap = 64

func lastN[T any](in []T, n int) []T {
	if len(in) > n {
		return in[len(in)-n:]
	}
	return in
}

// WriteJSON writes the snapshot (plus the tails of the trace and span
// rings, capped at DumpTraceCap each) as a single-line JSON object, so
// `echo [metricsDump]` stays one protocol line.
func (m *Metrics) WriteJSON(w io.Writer) error {
	d := jsonDump{Metrics: make(map[string]int64)}
	for _, s := range m.Snapshot() {
		d.Metrics[s.Name] = s.Value
	}
	d.Trace = lastN(m.Trace.Events(), DumpTraceCap)
	d.Spans = lastN(m.Trace.Spans(), DumpTraceCap)
	enc := json.NewEncoder(w)
	return enc.Encode(d)
}

// FormatValue renders a sample value for the statistics Tcl list.
func (s Sample) FormatValue() string { return strconv.FormatInt(s.Value, 10) }
