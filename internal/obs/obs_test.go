package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Load() != 5 {
		t.Errorf("counter = %d", c.Load())
	}
	var g Gauge
	g.Observe(7)
	g.Observe(3)
	if g.Load() != 3 || g.Max() != 7 {
		t.Errorf("gauge = %d max %d", g.Load(), g.Max())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{100, 200, 400, 100_000, 5 * time.Second} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != int64(5*time.Second) {
		t.Errorf("max = %d", h.Max())
	}
	want := int64(100 + 200 + 400 + 100_000 + 5*time.Second)
	if h.Sum() != want {
		t.Errorf("sum = %d, want %d", h.Sum(), want)
	}
	if h.Mean() != want/5 {
		t.Errorf("mean = %d", h.Mean())
	}
	// The p50 (3rd of 5 observations, 400ns) falls in the bucket
	// bounded by 512ns.
	if q := h.Quantile(0.5); q != 512 {
		t.Errorf("p50 = %d", q)
	}
	// The top quantile lands in the overflow bucket → observed max.
	if q := h.Quantile(0.99); q != int64(5*time.Second) {
		t.Errorf("p99 = %d", q)
	}
	var total int64
	for _, b := range h.Buckets() {
		total += b
	}
	if total != 5 {
		t.Errorf("bucket total = %d", total)
	}
	if BucketBound(0) != histBase || BucketBound(histBuckets-1) != -1 {
		t.Errorf("bucket bounds wrong")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Errorf("negative observation: count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestHistogramQuantileProperty checks, over random observation sets
// spread across many octaves, that no quantile exceeds the recorded
// maximum and that quantiles grow with q.
func TestHistogramQuantileProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var h Histogram
		for i, n := 0, 1+r.Intn(200); i < n; i++ {
			// Log-uniform from 1ns to about 17s.
			h.Observe(time.Duration(math.Exp(r.Float64() * 24 * math.Ln2)))
		}
		max := h.Max()
		prev := int64(0)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			v := h.Quantile(q)
			if v > max {
				t.Fatalf("trial %d: p%g = %d exceeds max %d", trial, q*100, v, max)
			}
			if v < prev {
				t.Fatalf("trial %d: p%g = %d below a lower quantile %d", trial, q*100, v, prev)
			}
			prev = v
		}
		if p50, p99 := h.Quantile(0.5), h.Quantile(0.99); p50 > p99 {
			t.Fatalf("trial %d: p50 %d > p99 %d", trial, p50, p99)
		}
	}
}

func TestCounterVec(t *testing.T) {
	var v CounterVec
	v.Inc("echo")
	v.Inc("echo")
	v.Inc("realize")
	if s := v.Snapshot(); s["echo"] != 2 || s["realize"] != 1 || len(s) != 2 {
		t.Errorf("snapshot = %v", s)
	}
}

func TestTraceGatingAndSink(t *testing.T) {
	var tr Trace
	var lines []string
	tr.SetSink(func(s string) { lines = append(lines, s) })
	tr.Echo("cmd", "ignored while disabled")
	if len(lines) != 0 {
		t.Fatal("disabled trace echoed")
	}
	tr.SetEnabled(true)
	tr.Echo("cmd", "%echo hi")
	tr.SetEnabled(false)
	tr.Echo("cmd", "off again")
	if len(lines) != 1 || lines[0] != "wafe: trace cmd: %echo hi" {
		t.Fatalf("sink = %q", lines)
	}
	if spans := tr.Spans(); len(spans) != 0 {
		t.Fatalf("Echo recorded spans %+v", spans)
	}
}

// sample returns the snapshot value of the named metric.
func sample(m *Metrics, name string) (int64, bool) {
	for _, s := range m.Snapshot() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// observeN records n one-microsecond observations into h.
func observeN(h *Histogram, n int) {
	for i := 0; i < n; i++ {
		h.Observe(time.Microsecond)
	}
}

func TestMetricsSnapshotAndJSON(t *testing.T) {
	m := New()
	observeN(&m.Tcl.EvalLatency, 3)
	m.Tcl.ScriptCacheHits.Add(2)
	m.Tcl.Dispatch.Inc("echo")
	m.Xt.DispatchLatency.Observe(time.Millisecond)
	m.Frontend.MassBytes.Add(4096)
	m.Xproto.Requests.Inc("DrawString")
	if v, ok := sample(m, "tcl.evals"); !ok || v != 3 {
		t.Errorf("tcl.evals = %d, %v", v, ok)
	}
	if v, ok := sample(m, "tcl.dispatch.echo"); !ok || v != 1 {
		t.Errorf("tcl.dispatch.echo = %d, %v", v, ok)
	}
	if v, ok := sample(m, "xt.dispatch_latency.count"); !ok || v != 1 {
		t.Errorf("dispatch latency count = %d, %v", v, ok)
	}
	m.Trace.SetEnabled(true)
	m.Trace.StartSpan("line", "%echo hi").End()
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(strings.TrimSpace(out), "\n") != 0 {
		t.Errorf("dump is not single-line: %q", out)
	}
	var doc struct {
		Metrics map[string]int64 `json:"metrics"`
		Spans   []Span           `json:"spans"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("dump not valid JSON: %v", err)
	}
	if doc.Metrics["frontend.mass_bytes"] != 4096 || doc.Metrics["xproto.requests.DrawString"] != 1 {
		t.Errorf("dump metrics = %v", doc.Metrics)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Kind != "line" || doc.Spans[0].Name != "%echo hi" {
		t.Errorf("dump spans = %v", doc.Spans)
	}
}

// touchAll adds to every counter, gauge, histogram and counter vector
// in the struct v points at, recursing into nested structs, so that
// each metric a registry lists shows up in its snapshot.
func touchAll(v reflect.Value) {
	v = v.Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		f := v.Field(i).Addr()
		switch x := f.Interface().(type) {
		case *Counter:
			x.Inc()
		case *Gauge:
			x.Observe(1)
		case *Histogram:
			x.Observe(time.Microsecond)
		case *CounterVec:
			x.Inc("x")
		default:
			if f.Elem().Kind() == reflect.Struct {
				touchAll(f)
			}
		}
	}
}

// TestPrometheusCarriesEverySample: every name statistics reports has
// a family in the Prometheus output. A scalar a.b maps to wafe_a_b, a
// histogram's five samples to the wafe_<name>_seconds histogram, and a
// vector's <name>.<label> to a labelled series of wafe_<name>.
func TestPrometheusCarriesEverySample(t *testing.T) {
	sm := NewServer()
	m := sm.AddSession("s1")
	touchAll(reflect.ValueOf(m))
	touchAll(reflect.ValueOf(sm))
	for _, src := range []Source{m, sm} {
		var sb strings.Builder
		if err := src.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		vals := parsePromText(t, sb.String())
		has := func(name string) bool {
			if _, ok := vals[promName(name)]; ok {
				return true
			}
			for _, suf := range []string{".count", ".mean_ns", ".p50_ns", ".p99_ns", ".max_ns"} {
				if base, ok := strings.CutSuffix(name, suf); ok {
					if _, ok := vals[promName(base)+`_seconds_bucket{le="+Inf"}`]; ok {
						return true
					}
				}
			}
			if i := strings.LastIndexByte(name, '.'); i >= 0 {
				family, label := promName(name[:i])+"{", `="`+name[i+1:]+`"}`
				for series := range vals {
					if strings.HasPrefix(series, family) && strings.HasSuffix(series, label) {
						return true
					}
				}
			}
			return false
		}
		for _, s := range src.Snapshot() {
			if !has(s.Name) {
				t.Errorf("statistics name %s has no Prometheus family", s.Name)
			}
		}
	}
}

func TestConcurrentWritersAndSnapshot(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Tcl.EvalLatency.Observe(time.Duration(i))
				m.Tcl.Dispatch.Inc(fmt.Sprintf("cmd%d", g%2))
				m.Xt.DispatchLatency.Observe(time.Duration(i))
				m.Xt.EventQueueDepth.Observe(int64(i))
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		_ = m.Snapshot()
	}
	wg.Wait()
	if v, _ := sample(m, "tcl.evals"); v != 4000 {
		t.Errorf("evals = %d", v)
	}
	if m.Xt.DispatchLatency.Count() != 4000 {
		t.Errorf("latency count = %d", m.Xt.DispatchLatency.Count())
	}
}

func TestServeDebug(t *testing.T) {
	m := New()
	observeN(&m.Tcl.EvalLatency, 9)
	ln, err := ServeDebug("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()
	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(b)
	}
	if body := get("/metrics.json"); !strings.Contains(body, `"tcl.evals":9`) {
		t.Errorf("/metrics.json = %q", body)
	}
	if body := get("/metrics"); !strings.Contains(body, "wafe_tcl_evals 9") {
		t.Errorf("/metrics = %q", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, `"memstats"`) {
		t.Errorf("/debug/vars misses the runtime's memstats")
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %.100q", body)
	}
}
