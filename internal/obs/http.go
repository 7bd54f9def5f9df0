package obs

import (
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// Source is a metrics registry the debug endpoint, the exit dump and
// the flight recorder publish: a single-session *Metrics or the
// serve-mode *ServerMetrics aggregate.
type Source interface {
	Snapshot() []Sample
	WriteJSON(w io.Writer) error
	WritePrometheus(w io.Writer) error
}

// ServeDebug exposes src on addr: /debug/vars (the runtime's expvar
// variables), the /debug/pprof profiling endpoints, /metrics
// (Prometheus text format, full histogram buckets) and /metrics.json
// (the metricsDump JSON document; in serve mode the aggregate with one
// object per session). It returns the bound listener so callers can
// report the actual address (addr may use port 0) and close it; the
// HTTP server runs until the listener closes.
func ServeDebug(addr string, src Source) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = src.WriteJSON(w)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = src.WritePrometheus(w)
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
