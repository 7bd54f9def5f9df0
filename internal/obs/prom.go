package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file implements Prometheus text-format exposition
// (https://prometheus.io/docs/instrumenting/exposition_formats/) for
// the metrics registries. Unlike Snapshot — which flattens histograms
// to count/mean/p50/p99/max for the Tcl-facing statistics list — the
// Prometheus form keeps the full bucket layout (cumulative `le`
// series in seconds), and labelled counter vectors become one series
// per label instead of one dotted name per label.

// promName maps a dotted snapshot name to a Prometheus metric name:
// wafe_ prefix, dots to underscores.
func promName(name string) string {
	return "wafe_" + strings.ReplaceAll(name, ".", "_")
}

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// promWriter accumulates exposition lines, remembering the first write
// error so call sites stay linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// scalar emits one TYPE-annotated single-value metric.
func (p *promWriter) scalar(name, typ string, v int64) {
	n := promName(name)
	p.printf("# TYPE %s %s\n%s %d\n", n, typ, n, v)
}

// vec emits one counter per label under a single metric name.
func (p *promWriter) vec(name, label string, v *CounterVec) {
	n := promName(name)
	snap := v.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p.printf("# TYPE %s counter\n", n)
	for _, k := range keys {
		p.printf("%s{%s=\"%s\"} %d\n", n, label, promEscape(k), snap[k])
	}
}

// histogram emits the full bucket layout as a Prometheus histogram:
// cumulative bucket counts with `le` upper bounds in seconds, then
// _sum (seconds) and _count. The overflow bucket maps to le="+Inf".
func (p *promWriter) histogram(name string, h *Histogram) {
	n := promName(name)
	p.printf("# TYPE %s histogram\n", n)
	var cum int64
	for i, c := range h.Buckets() {
		cum += c
		bound := BucketBound(i)
		if bound < 0 {
			p.printf("%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		} else {
			p.printf("%s_bucket{le=%q} %d\n", n, formatSeconds(bound), cum)
		}
	}
	p.printf("%s_sum %s\n", n, formatSeconds(h.Sum()))
	p.printf("%s_count %d\n", n, h.Count())
}

// formatSeconds renders nanoseconds as a decimal seconds literal
// without float rounding artifacts (128ns → "0.000000128").
func formatSeconds(ns int64) string {
	sec := ns / 1e9
	frac := ns % 1e9
	if frac == 0 {
		return fmt.Sprintf("%d", sec)
	}
	s := fmt.Sprintf("%d.%09d", sec, frac)
	return strings.TrimRight(s, "0")
}

// WritePrometheus writes the single-session registry in Prometheus
// text format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}
	t := &m.Tcl
	p.scalar("tcl.evals", "counter", t.Evals.Load())
	p.scalar("tcl.script_cache.hits", "counter", t.ScriptCacheHits.Load())
	p.scalar("tcl.script_cache.misses", "counter", t.ScriptCacheMisses.Load())
	p.scalar("tcl.expr_cache.hits", "counter", t.ExprCacheHits.Load())
	p.scalar("tcl.expr_cache.misses", "counter", t.ExprCacheMisses.Load())
	p.histogram("tcl.eval_latency_seconds", &t.EvalLatency)
	p.vec("tcl.dispatch", "command", &t.Dispatch)

	x := &m.Xt
	p.scalar("xt.events_dispatched", "counter", x.EventsDispatched.Load())
	p.scalar("xt.event_queue_depth", "gauge", x.EventQueueDepth.Load())
	p.scalar("xt.event_queue_depth_max", "gauge", x.EventQueueDepth.Max())
	p.scalar("xt.posted_queue_depth_max", "gauge", x.PostedQueueDepth.Max())
	p.scalar("xt.callbacks_fired", "counter", x.CallbacksFired.Load())
	p.scalar("xt.actions_fired", "counter", x.ActionsFired.Load())
	p.scalar("xt.xrm_searchlist_hits", "counter", x.XrmSearchListHits.Load())
	p.scalar("xt.xrm_searchlist_misses", "counter", x.XrmSearchListMisses.Load())
	p.scalar("xt.xrm_generation", "gauge", x.XrmGeneration.Load())
	p.histogram("xt.dispatch_latency_seconds", &x.DispatchLatency)

	pr := &m.Xproto
	p.scalar("xproto.events_queued", "counter", pr.EventsQueued.Load())
	p.vec("xproto.requests", "op", &pr.Requests)

	f := &m.Frontend
	p.scalar("frontend.command_lines", "counter", f.CommandLines.Load())
	p.scalar("frontend.passed_lines", "counter", f.PassedLines.Load())
	p.scalar("frontend.overlong_lines", "counter", f.OverlongLines.Load())
	p.scalar("frontend.eval_errors", "counter", f.EvalErrors.Load())
	p.scalar("frontend.mass_transfers", "counter", f.MassTransfers.Load())
	p.scalar("frontend.mass_bytes", "counter", f.MassBytes.Load())
	p.scalar("frontend.mass_reads", "counter", f.MassReads.Load())
	p.scalar("frontend.read_errors", "counter", f.ReadErrors.Load())
	p.scalar("frontend.backend_restarts", "counter", f.BackendRestarts.Load())
	p.scalar("frontend.backend_uptime_ms", "gauge", f.BackendUptime.Load())
	p.scalar("frontend.backend_uptime_ms_max", "gauge", f.BackendUptime.Max())
	p.vec("frontend.backend_exits", "class", &f.BackendExits)
	p.histogram("frontend.line_latency_seconds", &f.LineLatency)
	return p.err
}

// WritePrometheus writes the serve-mode aggregate in Prometheus text
// format: the server's own counters, the live-session aggregates the
// Snapshot computes, the aggregate dispatch histogram with buckets,
// and the per-session line/error counters labelled by session id.
func (s *ServerMetrics) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}
	s.mu.Lock()
	var evals, lines, errs, queueMax int64
	for _, m := range s.live {
		evals += m.Tcl.Evals.Load()
		lines += m.Frontend.CommandLines.Load()
		errs += m.Frontend.EvalErrors.Load()
		if q := m.Xt.PostedQueueDepth.Max(); q > queueMax {
			queueMax = q
		}
	}
	s.mu.Unlock()
	p.scalar("server.sessions_active", "gauge", s.SessionsActive.Load())
	p.scalar("server.sessions_active_max", "gauge", s.SessionsActive.Max())
	p.scalar("server.sessions_total", "counter", s.SessionsTotal.Load())
	p.scalar("server.refused", "counter", s.Refused.Load())
	p.scalar("server.accept_errors", "counter", s.AcceptErrors.Load())
	p.scalar("server.live_evals", "gauge", evals)
	p.scalar("server.live_command_lines", "gauge", lines)
	p.scalar("server.live_eval_errors", "gauge", errs)
	p.scalar("server.live_queue_depth_max", "gauge", queueMax)
	p.vec("server.session_ends", "reason", &s.SessionEnds)
	p.vec("server.session_lines", "session", &s.SessionLines)
	p.vec("server.session_errors", "session", &s.SessionErrors)
	p.histogram("server.dispatch_latency_seconds", &s.DispatchLatency)
	return p.err
}
