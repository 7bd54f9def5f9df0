package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// TclMetrics instruments the interpreter: top-level eval latency
// (whose count is tcl.evals), per-command dispatch counts, and the
// intern caches.
type TclMetrics struct {
	EvalLatency       Histogram
	ScriptCacheHits   Counter
	ScriptCacheMisses Counter
	ExprCacheHits     Counter
	ExprCacheMisses   Counter
	Dispatch          CounterVec // per command name
}

// XtMetrics instruments the event loop: dispatch latency (whose count
// is xt.events_dispatched), queue depths, and callback/action firings.
type XtMetrics struct {
	DispatchLatency  Histogram
	EventQueueDepth  Gauge // X event queue observed in Pump
	PostedQueueDepth Gauge // posted-closure channel observed in Post
	CallbacksFired   Counter
	ActionsFired     Counter
	DispatchErrors   Counter // translation actions bound to no action procedure

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
// its layers. The interpreter, the event loop, its resource database
// and each display hold one handle to it; a nil handle (observability
// disabled) keeps every instrumented path at one comparison.
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

// metricVisitor receives a registry's metrics in order, one call per
// metric. Each registry lists its metrics once, in its walk method;
// sampleList flattens them for statistics and the JSON documents, and
// promWriter (prom.go) writes them as Prometheus families.
type metricVisitor interface {
	// scalar is one counter or gauge value; typ is its Prometheus
	// type.
	scalar(name, typ string, v int64)
	// vec is a counter per label value.
	vec(name, label string, v *CounterVec)
	histogram(name string, h *Histogram)
}

// sampleList flattens metrics into dotted samples: a vector becomes
// <name>.<label value> per label, a histogram its count, mean, p50, p99
// and max in nanoseconds.
type sampleList []Sample

func (s *sampleList) scalar(name, _ string, v int64) {
	*s = append(*s, Sample{name, v})
}

func (s *sampleList) vec(name, _ string, v *CounterVec) {
	v.each(func(label string, n int64) {
		*s = append(*s, Sample{name + "." + label, n})
	})
}

func (s *sampleList) histogram(name string, h *Histogram) {
	*s = append(*s,
		Sample{name + ".count", h.Count()},
		Sample{name + ".mean_ns", h.Mean()},
		Sample{name + ".p50_ns", h.Quantile(0.50)},
		Sample{name + ".p99_ns", h.Quantile(0.99)},
		Sample{name + ".max_ns", h.Max()},
	)
}

// sampleMap turns samples into the name → value object of the JSON
// documents.
func sampleMap(samples []Sample) map[string]int64 {
	out := make(map[string]int64, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
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
	var out sampleList
	m.walk(&out)
	return out
}

// walk visits every metric of the registry, grouped per layer.
func (m *Metrics) walk(v metricVisitor) {
	t := &m.Tcl
	v.scalar("tcl.evals", "counter", t.EvalLatency.Count())
	v.scalar("tcl.script_cache.hits", "counter", t.ScriptCacheHits.Load())
	v.scalar("tcl.script_cache.misses", "counter", t.ScriptCacheMisses.Load())
	v.scalar("tcl.expr_cache.hits", "counter", t.ExprCacheHits.Load())
	v.scalar("tcl.expr_cache.misses", "counter", t.ExprCacheMisses.Load())
	v.histogram("tcl.eval_latency", &t.EvalLatency)
	v.vec("tcl.dispatch", "command", &t.Dispatch)

	x := &m.Xt
	v.scalar("xt.events_dispatched", "counter", x.DispatchLatency.Count())
	v.scalar("xt.event_queue_depth", "gauge", x.EventQueueDepth.Load())
	v.scalar("xt.event_queue_depth_max", "gauge", x.EventQueueDepth.Max())
	v.scalar("xt.posted_queue_depth_max", "gauge", x.PostedQueueDepth.Max())
	v.scalar("xt.callbacks_fired", "counter", x.CallbacksFired.Load())
	v.scalar("xt.actions_fired", "counter", x.ActionsFired.Load())
	v.scalar("xt.dispatch_errors", "counter", x.DispatchErrors.Load())
	v.scalar("xt.redraw_clipped", "counter", x.RedrawClipped.Load())
	v.scalar("xt.redraw_full", "counter", x.RedrawFull.Load())
	v.scalar("xt.xrm_searchlist_hits", "counter", x.XrmSearchListHits.Load())
	v.scalar("xt.xrm_searchlist_misses", "counter", x.XrmSearchListMisses.Load())
	v.scalar("xt.xrm_generation", "gauge", x.XrmGeneration.Load())
	v.histogram("xt.dispatch_latency", &x.DispatchLatency)

	p := &m.Xproto
	v.scalar("xproto.events_queued", "counter", p.EventsQueued.Load())
	v.scalar("xproto.damage_rects", "counter", p.DamageRects.Load())
	v.scalar("xproto.exposes_coalesced", "counter", p.ExposesCoalesced.Load())
	v.scalar("xproto.exposes_dropped", "counter", p.ExposesDropped.Load())
	v.vec("xproto.requests", "op", &p.Requests)

	f := &m.Frontend
	v.scalar("frontend.command_lines", "counter", f.CommandLines.Load())
	v.scalar("frontend.passed_lines", "counter", f.PassedLines.Load())
	v.scalar("frontend.overlong_lines", "counter", f.OverlongLines.Load())
	v.scalar("frontend.eval_errors", "counter", f.EvalErrors.Load())
	v.scalar("frontend.mass_transfers", "counter", f.MassTransfers.Load())
	v.scalar("frontend.mass_bytes", "counter", f.MassBytes.Load())
	v.scalar("frontend.mass_reads", "counter", f.MassReads.Load())
	v.scalar("frontend.read_errors", "counter", f.ReadErrors.Load())
	v.scalar("frontend.backend_restarts", "counter", f.BackendRestarts.Load())
	v.scalar("frontend.backend_uptime_ms", "gauge", f.BackendUptime.Load())
	v.scalar("frontend.backend_uptime_ms_max", "gauge", f.BackendUptime.Max())
	v.vec("frontend.backend_exits", "class", &f.BackendExits)
	v.histogram("frontend.line_latency", &f.LineLatency)
}

// jsonDump is the --metrics-dump / metricsDump document shape.
type jsonDump struct {
	Metrics map[string]int64 `json:"metrics"`
	Spans   []Span           `json:"spans,omitempty"`
}

// DumpTraceCap bounds the spans embedded in the metricsDump JSON and
// kept for an ended serve session: the document travels as one
// protocol line, so a large configured ring (--trace-ring 65536) must
// not balloon it. The most recent spans win; the full ring stays
// reachable through the trace Tcl command and the flight recorder.
const DumpTraceCap = 64

// dumpTail returns the last DumpTraceCap spans.
func dumpTail(spans []Span) []Span {
	if len(spans) > DumpTraceCap {
		return spans[len(spans)-DumpTraceCap:]
	}
	return spans
}

// WriteJSON writes the snapshot (plus the tail of the span ring,
// capped at DumpTraceCap) as a single-line JSON object, so
// `echo [metricsDump]` stays one protocol line.
func (m *Metrics) WriteJSON(w io.Writer) error {
	d := jsonDump{
		Metrics: sampleMap(m.Snapshot()),
		Spans:   dumpTail(m.Trace.Spans()),
	}
	return json.NewEncoder(w).Encode(d)
}

// FormatValue renders a sample value for the statistics Tcl list.
func (s Sample) FormatValue() string { return strconv.FormatInt(s.Value, 10) }
