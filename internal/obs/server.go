package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// ServerMetrics is the serve-mode registry: one *Metrics per live
// session (created by AddSession, carried by the session's Wafe), plus
// the aggregate counters the server itself maintains. The aggregate
// Snapshot is what --debug-addr publishes in serve mode and what every
// session's statistics command appends under the server.* prefix.
//
// Completed sessions keep their final metric snapshot (bounded by
// DoneLimit) so the exit dump can report every session of a bounded
// run, while a long-lived server does not grow without bound.
type ServerMetrics struct {
	// SessionsActive tracks the number of live sessions (its Max is the
	// high watermark of the run).
	SessionsActive Gauge
	// SessionsTotal counts every session ever started.
	SessionsTotal Counter
	// SessionEnds classifies every session departure:
	// quit / eof / readerr / panic / shutdown.
	SessionEnds CounterVec
	// Refused counts connections turned away by the session bound.
	Refused Counter
	// AcceptErrors counts transient listener failures.
	AcceptErrors Counter

	// DoneLimit bounds retained snapshots of completed sessions
	// (<= 0 means the default of 4096).
	DoneLimit int

	mu        sync.Mutex
	live      map[string]*Metrics
	done      map[string]map[string]int64
	doneSpans map[string][]Span
	doneOrder []string
	// doneLatency holds the frontend.line_latency of every ended
	// session, retained or not: with the live sessions' own histograms
	// it is server.dispatch_latency.
	doneLatency Histogram
}

// NewServer returns an empty serve-mode registry.
func NewServer() *ServerMetrics {
	return &ServerMetrics{
		live:      make(map[string]*Metrics),
		done:      make(map[string]map[string]int64),
		doneSpans: make(map[string][]Span),
	}
}

// AddSession registers a new session and returns its private metrics
// registry. The registry's Extra hook is left to the caller (the serve
// layer points it at this ServerMetrics so per-session statistics
// include the aggregates).
func (s *ServerMetrics) AddSession(id string) *Metrics {
	m := New()
	s.mu.Lock()
	s.live[id] = m
	n := int64(len(s.live))
	s.mu.Unlock()
	s.SessionsTotal.Inc()
	s.SessionsActive.Observe(n)
	return m
}

// EndSession retires a session: its final snapshot — and, when it
// traced, its last DumpTraceCap spans — is retained (up to DoneLimit
// sessions), its line latencies join the ended sessions' histogram,
// the live map shrinks, and the departure is classified.
func (s *ServerMetrics) EndSession(id, reason string) {
	s.mu.Lock()
	m := s.live[id]
	delete(s.live, id)
	n := int64(len(s.live))
	if m != nil {
		limit := s.DoneLimit
		if limit <= 0 {
			limit = 4096
		}
		s.done[id] = sampleMap(m.SnapshotBase())
		s.doneLatency.add(&m.Frontend.LineLatency)
		if spans := dumpTail(m.Trace.Spans()); len(spans) > 0 {
			s.doneSpans[id] = spans
		}
		s.doneOrder = append(s.doneOrder, id)
		for len(s.doneOrder) > limit {
			delete(s.done, s.doneOrder[0])
			delete(s.doneSpans, s.doneOrder[0])
			s.doneOrder = s.doneOrder[1:]
		}
	}
	s.mu.Unlock()
	s.SessionsActive.Observe(n)
	s.SessionEnds.Inc(reason)
}

// Snapshot returns the aggregate server.* samples: the server's own
// counters plus aggregates computed over the live sessions (summed
// eval counts, max queue depths) and the line latency of every
// session. The per-session line and error counts stay out of it; the
// JSON document keys each session's own counters by id instead.
func (s *ServerMetrics) Snapshot() []Sample {
	var out sampleList
	s.walk(&out, false)
	return out
}

// walk visits the aggregate metrics, and with perSession also the
// line and error counts of each live and retained session, labelled
// by session id. It never descends into a session's full Snapshot, so
// a session whose Extra hook points back here cannot recurse.
func (s *ServerMetrics) walk(v metricVisitor, perSession bool) {
	var evals, lines, errs, queueMax int64
	var sessionLines, sessionErrors CounterVec
	var latency Histogram
	s.mu.Lock()
	latency.add(&s.doneLatency)
	for id, m := range s.live {
		n, e := m.Frontend.CommandLines.Load(), m.Frontend.EvalErrors.Load()
		evals += m.Tcl.EvalLatency.Count()
		lines, errs = lines+n, errs+e
		if q := m.Xt.PostedQueueDepth.Max(); q > queueMax {
			queueMax = q
		}
		latency.add(&m.Frontend.LineLatency)
		if perSession {
			sessionLines.Counter(id).Add(n)
			sessionErrors.Counter(id).Add(e)
		}
	}
	if perSession {
		for id, final := range s.done {
			sessionLines.Counter(id).Add(final["frontend.command_lines"])
			sessionErrors.Counter(id).Add(final["frontend.eval_errors"])
		}
	}
	s.mu.Unlock()
	v.scalar("server.sessions_active", "gauge", s.SessionsActive.Load())
	v.scalar("server.sessions_active_max", "gauge", s.SessionsActive.Max())
	v.scalar("server.sessions_total", "counter", s.SessionsTotal.Load())
	v.scalar("server.refused", "counter", s.Refused.Load())
	v.scalar("server.accept_errors", "counter", s.AcceptErrors.Load())
	v.scalar("server.live_evals", "gauge", evals)
	v.scalar("server.live_command_lines", "gauge", lines)
	v.scalar("server.live_eval_errors", "gauge", errs)
	v.scalar("server.live_queue_depth_max", "gauge", queueMax)
	v.vec("server.session_ends", "reason", &s.SessionEnds)
	if perSession {
		v.vec("server.session_lines", "session", &sessionLines)
		v.vec("server.session_errors", "session", &sessionErrors)
	}
	v.histogram("server.dispatch_latency", &latency)
}

// serverDump is the serve-mode --metrics-dump document: the aggregate
// plus one object per session (live sessions snapshotted now, completed
// sessions at their final state), keyed by session id; sessions with a
// tracer enabled also contribute their recent spans (capped at
// DumpTraceCap each, completed sessions keeping their retained tail),
// again keyed by session id.
type serverDump struct {
	Server   map[string]int64            `json:"server"`
	Sessions map[string]map[string]int64 `json:"sessions"`
	Spans    map[string][]Span           `json:"spans,omitempty"`
}

// WriteJSON writes the serve-mode metrics document.
func (s *ServerMetrics) WriteJSON(w io.Writer) error {
	d := serverDump{
		Server:   sampleMap(s.Snapshot()),
		Sessions: make(map[string]map[string]int64),
		Spans:    make(map[string][]Span),
	}
	s.mu.Lock()
	live := make(map[string]*Metrics, len(s.live))
	for id, m := range s.live {
		live[id] = m
	}
	for id, final := range s.done {
		d.Sessions[id] = final
	}
	for id, spans := range s.doneSpans {
		d.Spans[id] = spans
	}
	s.mu.Unlock()
	// Snapshot live sessions outside the lock: SnapshotBase walks
	// lock-free atomics only.
	for id, m := range live {
		d.Sessions[id] = sampleMap(m.SnapshotBase())
		if spans := dumpTail(m.Trace.Spans()); len(spans) > 0 {
			d.Spans[id] = spans
		}
	}
	return json.NewEncoder(w).Encode(d)
}
