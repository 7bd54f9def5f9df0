package obs

import (
	"fmt"
	"io"
	"strings"
)

// This file implements Prometheus text-format exposition
// (https://prometheus.io/docs/instrumenting/exposition_formats/) for
// the metrics registries, from the same walk Snapshot runs. Unlike
// Snapshot — which flattens histograms to count/mean/p50/p99/max for
// the Tcl-facing statistics list — the Prometheus form keeps the full
// bucket layout (cumulative `le` series in seconds, in a family named
// <name>_seconds), and labelled counter vectors become one series per
// label instead of one dotted name per label.

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

// promWriter is the metricVisitor that writes exposition lines,
// remembering the first write error so the walk stays linear.
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
	p.printf("# TYPE %s counter\n", n)
	v.each(func(k string, c int64) {
		p.printf("%s{%s=\"%s\"} %d\n", n, label, promEscape(k), c)
	})
}

// histogram emits the full bucket layout as a Prometheus histogram
// named <name>_seconds: cumulative bucket counts with `le` upper
// bounds in seconds, then _sum (seconds) and _count. The overflow
// bucket maps to le="+Inf".
func (p *promWriter) histogram(name string, h *Histogram) {
	n := promName(name) + "_seconds"
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
	m.walk(p)
	return p.err
}

// WritePrometheus writes the serve-mode aggregate in Prometheus text
// format, including the per-session line and error counters labelled
// by session id.
func (s *ServerMetrics) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}
	s.walk(p, true)
	return p.err
}
