package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanDisabledIsNoop(t *testing.T) {
	var tr Trace
	sp := tr.StartSpan("line", "ignored")
	if sp.id != 0 {
		t.Fatal("disabled StartSpan returned an active span")
	}
	sp.End()
	tr.Instant("xproto", "ignored")
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("disabled trace recorded %d spans", len(got))
	}
}

func TestSpanParentLinks(t *testing.T) {
	var tr Trace
	tr.SetEnabled(true)
	line := tr.StartSpan("line", "%sV b label x")
	eval := tr.StartSpan("eval", "sV b label x")
	tr.Instant("xproto", "DrawString")
	eval.End()
	cb := tr.StartSpan("callback", "b.activate")
	cb.EndAttrs("data=click")
	line.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	lineSp := byName["%sV b label x"]
	if lineSp.Parent != 0 {
		t.Errorf("line parent = %d, want 0 (root)", lineSp.Parent)
	}
	if got := byName["sV b label x"].Parent; got != lineSp.ID {
		t.Errorf("eval parent = %d, want line id %d", got, lineSp.ID)
	}
	if got := byName["DrawString"].Parent; got != byName["sV b label x"].ID {
		t.Errorf("instant parent = %d, want eval id", got)
	}
	cbSp := byName["b.activate"]
	if cbSp.Parent != lineSp.ID {
		t.Errorf("callback parent = %d, want line id %d (eval ended)", cbSp.Parent, lineSp.ID)
	}
	if cbSp.Attrs != "data=click" {
		t.Errorf("callback attrs = %q", cbSp.Attrs)
	}
	if byName["DrawString"].Dur != 0 {
		t.Errorf("instant has nonzero duration %v", byName["DrawString"].Dur)
	}
}

func TestSpanRingEvictsOldest(t *testing.T) {
	var tr Trace
	tr.SetRingSize(3)
	tr.SetEnabled(true)
	for i := 0; i < 7; i++ {
		tr.StartSpan("eval", "e"+strconv.Itoa(i)).End()
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want ring size 3", len(spans))
	}
	for i, sp := range spans {
		if want := "e" + strconv.Itoa(4+i); sp.Name != want {
			t.Errorf("span %d = %s, want %s", i, sp.Name, want)
		}
	}
	if tr.ringSize != 3 {
		t.Errorf("ring size = %d", tr.ringSize)
	}
}

func TestSpanClear(t *testing.T) {
	var tr Trace
	tr.SetEnabled(true)
	tr.StartSpan("line", "a").End()
	tr.Clear()
	if len(tr.Spans()) != 0 {
		t.Fatal("Clear left spans behind")
	}
	// Recording still works after Clear, and parents restart at root.
	tr.StartSpan("line", "b").End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Parent != 0 {
		t.Fatalf("post-Clear spans = %+v", spans)
	}
}

// TestSpanSessionStamp: the session id is kept once, on the trace,
// not copied into each span; dumps name it once per session.
func TestSpanSessionStamp(t *testing.T) {
	var tr Trace
	tr.SetSession("s7")
	tr.SetEnabled(true)
	tr.StartSpan("line", "x").End()
	if tr.Session() != "s7" {
		t.Errorf("Session() = %q", tr.Session())
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %+v", spans)
	}
	b, err := json.Marshal(spans[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "s7") {
		t.Errorf("span carries the session id: %s", b)
	}
}

func TestRenderSpanTree(t *testing.T) {
	spans := []Span{
		{ID: 1, Kind: "line", Name: "%echo hi", Dur: 5 * time.Microsecond},
		{ID: 2, Parent: 1, Kind: "eval", Name: "echo hi", Dur: 3 * time.Microsecond},
		{ID: 3, Parent: 2, Kind: "xproto", Name: "DrawString"},
		{ID: 4, Parent: 99, Kind: "eval", Name: "orphan"}, // evicted parent
	}
	out := RenderSpanTree(spans, 0)
	want := "line \"%echo hi\" 5µs (id 1)\n" +
		"  eval \"echo hi\" 3µs (id 2)\n" +
		"    xproto \"DrawString\" 0µs (id 3)\n" +
		"eval \"orphan\" 0µs (id 4)"
	if out != want {
		t.Errorf("tree =\n%s\nwant\n%s", out, want)
	}
	sub := RenderSpanTree(spans, 2)
	if !strings.HasPrefix(sub, "eval \"echo hi\"") || !strings.Contains(sub, "DrawString") || strings.Contains(sub, "line") {
		t.Errorf("subtree = %q", sub)
	}
}

// TestTraceConcurrency hammers one Trace from parallel goroutines doing
// everything the serve-mode surfaces do concurrently — span recording
// on the session goroutine vs. snapshot readers, sink swaps, ring
// resizes — and relies on -race for the verdict.
func TestTraceConcurrency(t *testing.T) {
	var tr Trace
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	// Writer: the session event loop (span nesting is single-threaded
	// per session; one writer goroutine models that).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			sp := tr.StartSpan("eval", "e")
			tr.Instant("xproto", "op")
			sp.End()
			tr.Echo("cmd", "line")
			if i%64 == 0 {
				tr.Clear()
			}
		}
	}()
	// Readers and reconfigurers: debug endpoint, metricsDump, traceOn.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch (i + g) % 4 {
				case 0:
					_ = tr.Spans()
				case 1:
					_ = tr.Session()
				case 2:
					tr.SetSink(func(string) {})
				case 3:
					tr.SetRingSize(16 + i%16)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServerSampleNamesDistinct is the regression test for serve-mode
// aggregation: the server.* aggregate sample names a session's Extra
// hook appends must never collide with the session's own SnapshotBase
// names, or statistics would report one name twice with different
// values.
func TestServerSampleNamesDistinct(t *testing.T) {
	sm := NewServer()
	m := sm.AddSession("s1")
	m.Extra = sm.Snapshot
	m.Frontend.CommandLines.Inc()
	m.Frontend.EvalErrors.Inc()
	sm.SessionEnds.Inc("eof")
	m.Frontend.LineLatency.Observe(time.Millisecond)

	base := make(map[string]bool)
	for _, s := range m.SnapshotBase() {
		if base[s.Name] {
			t.Errorf("SnapshotBase repeats %s", s.Name)
		}
		base[s.Name] = true
	}
	seen := make(map[string]bool)
	for _, s := range m.Snapshot() {
		if seen[s.Name] {
			t.Errorf("statistics name %s appears twice", s.Name)
		}
		seen[s.Name] = true
		if strings.HasPrefix(s.Name, "server.") && base[s.Name] {
			t.Errorf("aggregate name %s collides with a session name", s.Name)
		}
	}
	for _, s := range sm.Snapshot() {
		if !strings.HasPrefix(s.Name, "server.") {
			t.Errorf("aggregate sample %s lacks the server. prefix", s.Name)
		}
		if base[s.Name] {
			t.Errorf("aggregate name %s collides with per-session name", s.Name)
		}
	}
}

// TestServerRetainsEndedSessionSpans: a traced session that ends
// before the exit dump keeps its span tail — the JSON document still
// carries it, keyed by session id, and eviction of the oldest done
// session drops its spans too.
func TestServerRetainsEndedSessionSpans(t *testing.T) {
	sm := NewServer()
	sm.DoneLimit = 1
	dumpSpans := func() map[string][]Span {
		t.Helper()
		var sb strings.Builder
		if err := sm.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		var d serverDump
		if err := json.Unmarshal([]byte(sb.String()), &d); err != nil {
			t.Fatalf("dump not valid JSON: %v", err)
		}
		return d.Spans
	}
	m := sm.AddSession("s1")
	m.Trace.SetSession("s1")
	m.Trace.SetEnabled(true)
	m.Trace.StartSpan("line", "%echo hi").End()
	sm.EndSession("s1", "quit")

	agg := dumpSpans()
	if len(agg["s1"]) != 1 || agg["s1"][0].Name != "%echo hi" {
		t.Fatalf("dump spans after end = %v", agg)
	}
	// A second ended session evicts the first (DoneLimit 1), spans
	// included.
	m2 := sm.AddSession("s2")
	m2.Trace.SetEnabled(true)
	m2.Trace.StartSpan("line", "%quit").End()
	sm.EndSession("s2", "quit")
	agg = dumpSpans()
	if len(agg["s1"]) != 0 {
		t.Errorf("evicted session s1 still has spans: %v", agg["s1"])
	}
	if len(agg["s2"]) != 1 {
		t.Errorf("retained session s2 spans = %v", agg["s2"])
	}
}

func TestProfilerMath(t *testing.T) {
	p := NewProfiler()
	p.Start()
	if !p.active.Load() {
		t.Fatal("not active after Start")
	}
	p.AddCommand("incr@hot:2", 2*time.Microsecond, 2*time.Microsecond)
	p.AddCommand("incr@hot:2", 3*time.Microsecond, 3*time.Microsecond)
	p.AddProc("hot", "<top>;hot", 5*time.Microsecond, 10*time.Microsecond, false)
	p.AddProc("hot", "<top>;hot", 5*time.Microsecond, 10*time.Microsecond, true) // recursive: no cum
	p.AddToplevel(time.Microsecond, 20*time.Microsecond)
	p.Stop()
	if p.active.Load() {
		t.Fatal("active after Stop")
	}

	st := *p.procs["hot"]
	if st.Count != 2 || st.SelfNs != 10_000 || st.CumNs != 10_000 {
		t.Errorf("hot = %+v", st)
	}
	if p.totalNs != 20_000 {
		t.Errorf("total = %d", p.totalNs)
	}
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	if strings.Count(strings.TrimSpace(doc), "\n") != 0 {
		t.Errorf("profile dump not single-line: %q", doc)
	}
	for _, want := range []string{`"total_ns":20000`, `"incr@hot:2"`, `"count":2`} {
		if !strings.Contains(doc, want) {
			t.Errorf("dump misses %s: %q", want, doc)
		}
	}
	folded := p.Folded()
	if !strings.Contains(folded, "<top>;hot 10\n") || !strings.Contains(folded, "<top> 1\n") {
		t.Errorf("folded = %q", folded)
	}
}

// parsePromText is a minimal Prometheus text-format validator: every
// non-comment line must be `name{labels} value` or `name value`, every
// series must follow a # TYPE comment for its family, and histogram
// bucket counts must be cumulative (non-decreasing, ending at _count).
func parsePromText(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	values := map[string]string{}
	var lastBucketFamily string
	var lastCum int64 = -1
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line", ln+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: bad TYPE comment %q", ln+1, line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(valStr, 64); err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		name := series
		if br := strings.IndexByte(series, '{'); br >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, series)
			}
			name = series[:br]
		}
		if !strings.HasPrefix(name, "wafe_") {
			t.Fatalf("line %d: series %s lacks wafe_ prefix", ln+1, name)
		}
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] == "histogram" {
				family = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: series %s has no TYPE comment", ln+1, name)
		}
		if strings.HasSuffix(name, "_bucket") && types[family] == "histogram" {
			if family != lastBucketFamily {
				lastBucketFamily, lastCum = family, -1
			}
			v, _ := strconv.ParseInt(valStr, 10, 64)
			if v < lastCum {
				t.Fatalf("line %d: %s buckets not cumulative (%d < %d)", ln+1, family, v, lastCum)
			}
			lastCum = v
		}
		values[series] = valStr
	}
	return values
}

func TestWritePrometheus(t *testing.T) {
	m := New()
	m.Tcl.Dispatch.Inc("echo")
	m.Tcl.Dispatch.Inc(`quoted"cmd`)
	m.Tcl.EvalLatency.Observe(200 * time.Nanosecond)
	m.Tcl.EvalLatency.Observe(time.Hour) // overflow bucket
	m.Frontend.LineLatency.Observe(time.Millisecond)
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	vals := parsePromText(t, sb.String())
	if vals["wafe_tcl_evals"] != "2" {
		t.Errorf("wafe_tcl_evals = %q", vals["wafe_tcl_evals"])
	}
	if vals[`wafe_tcl_dispatch{command="echo"}`] != "1" {
		t.Errorf("dispatch echo missing: %v", vals)
	}
	if vals[`wafe_tcl_dispatch{command="quoted\"cmd"}`] != "1" {
		t.Errorf("label escaping broken")
	}
	if vals["wafe_tcl_eval_latency_seconds_count"] != "2" {
		t.Errorf("eval latency count = %q", vals["wafe_tcl_eval_latency_seconds_count"])
	}
	if vals[`wafe_tcl_eval_latency_seconds_bucket{le="+Inf"}`] != "2" {
		t.Errorf("+Inf bucket = %q", vals[`wafe_tcl_eval_latency_seconds_bucket{le="+Inf"}`])
	}
	// 200ns falls in the first bucket (bound 128ns) .. second (256ns):
	// the le="0.000000256" cumulative count must include it.
	if vals[`wafe_tcl_eval_latency_seconds_bucket{le="0.000000256"}`] != "1" {
		t.Errorf("256ns bucket = %q", vals[`wafe_tcl_eval_latency_seconds_bucket{le="0.000000256"}`])
	}
}

func TestWritePrometheusServer(t *testing.T) {
	sm := NewServer()
	m := sm.AddSession("s1")
	observeN(&m.Tcl.EvalLatency, 3)
	m.Frontend.CommandLines.Add(5)
	sm.SessionEnds.Inc("eof")
	m.Frontend.LineLatency.Observe(time.Millisecond)
	var sb strings.Builder
	if err := sm.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	vals := parsePromText(t, sb.String())
	if vals["wafe_server_live_evals"] != "3" {
		t.Errorf("live evals = %q", vals["wafe_server_live_evals"])
	}
	if vals[`wafe_server_session_lines{session="s1"}`] != "5" {
		t.Errorf("session lines missing: %v", vals)
	}
	if vals["wafe_server_dispatch_latency_seconds_count"] != "1" {
		t.Errorf("dispatch latency count = %q", vals["wafe_server_dispatch_latency_seconds_count"])
	}
}

func TestFormatSeconds(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		128:           "0.000000128",
		1_000_000_000: "1",
		1_500_000_000: "1.5",
		2_000_000:     "0.002",
	}
	for ns, want := range cases {
		if got := formatSeconds(ns); got != want {
			t.Errorf("formatSeconds(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestFlightRecorderTrip(t *testing.T) {
	dir := t.TempDir()
	fr := &FlightRecorder{Dir: dir, Latency: 10 * time.Millisecond, MinInterval: time.Hour}
	if fr.TripLatency(time.Millisecond) {
		t.Error("below-threshold latency tripped")
	}
	if !fr.TripLatency(20 * time.Millisecond) {
		t.Error("above-threshold latency did not trip")
	}

	m := New()
	observeN(&m.Tcl.EvalLatency, 5)
	m.Trace.SetEnabled(true)
	m.Trace.SetSession("s9")
	m.Trace.StartSpan("line", "%echo hi").End()

	path, err := fr.Trip("line_latency", "", "line took 20ms", m, &m.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "wafe-flight-1-line_latency.json" {
		t.Errorf("dump path = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"reason": "line_latency"`, `"session": "s9"`, `"tcl.evals": 5`, `"%echo hi"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("dump misses %s:\n%s", want, data)
		}
	}
	if fr.Dumps.Load() != 1 {
		t.Errorf("dumps = %d", fr.Dumps.Load())
	}

	// Second trip inside MinInterval is rate-limited.
	if p, err := fr.Trip("panic", "s9", "again", m, nil); err != nil || p != "" {
		t.Errorf("rate-limited trip: path=%q err=%v", p, err)
	}
	if fr.Dropped.Load() != 1 {
		t.Errorf("dropped = %d", fr.Dropped.Load())
	}
	// Reason strings are sanitized into safe filenames.
	if sanitizeReason("a/b c!") != "a_b_c_" || sanitizeReason("") != "anomaly" {
		t.Errorf("sanitizeReason broken")
	}
}

func TestMetricsDumpCapsTraceAndSpans(t *testing.T) {
	m := New()
	m.Trace.SetRingSize(DumpTraceCap * 4)
	m.Trace.SetEnabled(true)
	for i := 0; i < DumpTraceCap*3; i++ {
		m.Trace.StartSpan("eval", fmt.Sprintf("e%d", i)).End()
	}
	var sb strings.Builder
	if err := m.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, `"kind":"eval"`); n != DumpTraceCap {
		t.Errorf("dump spans = %d, want cap %d", n, DumpTraceCap)
	}
	// The cap keeps the newest entries.
	last := fmt.Sprintf("e%d", DumpTraceCap*3-1)
	if !strings.Contains(out, last) {
		t.Errorf("dump misses newest span %s", last)
	}
	if strings.Contains(out, `"trace"`) {
		t.Errorf("dump still has a trace array: %.200s", out)
	}
}
