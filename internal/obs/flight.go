package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// FlightRecorder snapshots the span ring plus the metric registry to a
// JSON file when an anomaly trips: a session panic, a backend crash, a
// protocol line over the latency threshold, or a refused connection
// when the serve pool is full. One recorder is shared by every session
// of a process (classic mode has exactly one); Trip is rate-limited so
// a pathological session cannot flood the directory.
type FlightRecorder struct {
	// Dir receives the dump files, named
	// wafe-flight-<seq>-<reason>.json.
	Dir string
	// Latency is the per-line threshold above which HandleAppLine
	// trips a dump; zero disables the latency trigger.
	Latency time.Duration
	// MinInterval is the minimum spacing between dumps (default 1s).
	MinInterval time.Duration

	seq  atomic.Int64
	last atomic.Int64 // unix nanos of the last dump
	// Dumps counts dumps written; Dropped counts trips suppressed by
	// rate limiting or write failures.
	Dumps   Counter
	Dropped Counter
}

// flightDump is the on-disk document shape.
type flightDump struct {
	Reason  string           `json:"reason"`
	Session string           `json:"session,omitempty"`
	Detail  string           `json:"detail,omitempty"`
	Time    time.Time        `json:"time"`
	Metrics map[string]int64 `json:"metrics"`
	Spans   []Span           `json:"spans,omitempty"`
}

// TripLatency reports whether d crosses the configured latency
// threshold — the one branch hot paths take before building a Trip.
func (fr *FlightRecorder) TripLatency(d time.Duration) bool {
	return fr.Latency > 0 && d >= fr.Latency
}

// Trip writes one flight dump and returns its path. src supplies the
// metric snapshot (a session's *Metrics or the serve aggregate); tr,
// when non-nil, contributes its span ring and, when session is empty,
// its session id. A trip inside MinInterval of the previous dump is
// dropped (counted, not written).
func (fr *FlightRecorder) Trip(reason, session, detail string, src Source, tr *Trace) (string, error) {
	min := fr.MinInterval
	if min <= 0 {
		min = time.Second
	}
	now := time.Now().UnixNano()
	last := fr.last.Load()
	if now-last < int64(min) || !fr.last.CompareAndSwap(last, now) {
		fr.Dropped.Inc()
		return "", nil
	}
	d := flightDump{
		Reason:  reason,
		Session: session,
		Detail:  detail,
		Time:    time.Now(),
		Metrics: map[string]int64{},
	}
	if src != nil {
		d.Metrics = sampleMap(src.Snapshot())
	}
	if tr != nil {
		d.Spans = tr.Spans()
		if session == "" {
			d.Session = tr.Session()
		}
	}
	dir := fr.Dir
	if dir == "" {
		dir = "."
	}
	name := fmt.Sprintf("wafe-flight-%d-%s.json", fr.seq.Add(1), sanitizeReason(reason))
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fr.Dropped.Inc()
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(d)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fr.Dropped.Inc()
		return path, err
	}
	fr.Dumps.Inc()
	return path, nil
}

// sanitizeReason keeps dump filenames shell-safe.
func sanitizeReason(r string) string {
	out := make([]byte, 0, len(r))
	for i := 0; i < len(r); i++ {
		c := r[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "anomaly"
	}
	return string(out)
}
