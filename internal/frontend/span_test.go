package frontend

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wafe/internal/core"
	"wafe/internal/obs"
)

// findSpan returns the first span matching kind and a name prefix.
func findSpan(spans []obs.Span, kind, namePrefix string) *obs.Span {
	for i := range spans {
		if spans[i].Kind == kind && strings.HasPrefix(spans[i].Name, namePrefix) {
			return &spans[i]
		}
	}
	return nil
}

// ancestors walks the parent links from sp to the root, returning the
// chain of span ids (nearest parent first).
func ancestors(spans []obs.Span, sp *obs.Span) []uint64 {
	byID := make(map[uint64]*obs.Span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var out []uint64
	for p := sp.Parent; p != 0; {
		out = append(out, p)
		next, ok := byID[p]
		if !ok {
			break
		}
		p = next.Parent
	}
	return out
}

func hasAncestor(spans []obs.Span, sp *obs.Span, id uint64) bool {
	for _, a := range ancestors(spans, sp) {
		if a == id {
			return true
		}
	}
	return false
}

// TestServeSpanTree is the tracing acceptance test: one serve-mode
// session builds a UI and clicks a button over the protocol, and the
// recorded spans must form the complete request tree — protocol line →
// tcl eval → xt callback → fired script and xproto request — with
// correct parent links, the spans keyed by session id in the serve
// dump, and plausible durations.
func TestServeSpanTree(t *testing.T) {
	srv, sm := startServer(t, ServeConfig{})
	c := dialServe(t, srv)
	defer c.conn.Close()

	c.send("%traceOn 512")
	c.send("%command hello topLevel callback {echo pressed}")
	c.send("%realize")
	c.send("%sendClick hello")
	if got := c.readLine(); got != "pressed" {
		t.Fatalf("click = %q", got)
	}
	// One more round trip so the %sendClick line span has surely been
	// recorded (lines are handled strictly in order).
	c.send("%echo done")
	if got := c.readLine(); got != "done" {
		t.Fatalf("sync = %q", got)
	}

	srv.mu.Lock()
	ls := srv.sessions[c.id]
	srv.mu.Unlock()
	if ls == nil || ls.s.W.Metrics == nil {
		t.Fatal("no live session metrics")
	}
	m := ls.s.W.Metrics
	spans := m.Trace.Spans()

	line := findSpan(spans, "line", "%sendClick hello")
	if line == nil {
		t.Fatalf("no line span for %%sendClick; spans:\n%s", obs.RenderSpanTree(spans, 0))
	}
	if line.Parent != 0 {
		t.Errorf("line span parent = %d, want 0 (root)", line.Parent)
	}
	eval := findSpan(spans, "eval", "sendClick hello")
	if eval == nil {
		t.Fatalf("no eval span for sendClick; spans:\n%s", obs.RenderSpanTree(spans, 0))
	}
	if eval.Parent != line.ID {
		t.Errorf("eval parent = %d, want line id %d", eval.Parent, line.ID)
	}
	cb := findSpan(spans, "callback", "hello.callback")
	if cb == nil {
		t.Fatalf("no callback span; spans:\n%s", obs.RenderSpanTree(spans, 0))
	}
	if !hasAncestor(spans, cb, eval.ID) || !hasAncestor(spans, cb, line.ID) {
		t.Errorf("callback span not under the sendClick line/eval; ancestors = %v\n%s",
			ancestors(spans, cb), obs.RenderSpanTree(spans, 0))
	}
	// The callback is reached through the Xt layers: its parent is the
	// notify action, which sits under a ButtonRelease dispatch.
	action := findSpan(spans, "action", "notify")
	if action == nil || cb.Parent != action.ID {
		t.Fatalf("callback parent is not the notify action; spans:\n%s", obs.RenderSpanTree(spans, 0))
	}
	dispatch := findSpan(spans, "dispatch", "ButtonRelease")
	if dispatch == nil || action.Parent != dispatch.ID {
		t.Errorf("notify action not under ButtonRelease dispatch; spans:\n%s", obs.RenderSpanTree(spans, 0))
	}
	// realize issued xproto requests; their instants sit under the
	// %realize line.
	realLine := findSpan(spans, "line", "%realize")
	xp := findSpan(spans, "xproto", "CreateWindow")
	if realLine == nil || xp == nil {
		t.Fatalf("missing realize line or CreateWindow instant; spans:\n%s", obs.RenderSpanTree(spans, 0))
	}
	if !hasAncestor(spans, xp, realLine.ID) {
		t.Errorf("CreateWindow not under the %%realize line; ancestors = %v", ancestors(spans, xp))
	}
	// The script the click fired is an instant under its callback.
	script := findSpan(spans, "script", "hello: echo pressed")
	if script == nil || script.Parent != cb.ID || script.Dur != 0 {
		t.Errorf("no script instant under the callback; spans:\n%s", obs.RenderSpanTree(spans, 0))
	}

	// Durations: real regions measured something, nesting is consistent,
	// instants are points.
	for _, sp := range []*obs.Span{line, eval, cb} {
		if sp.Dur <= 0 {
			t.Errorf("%s %q has non-positive duration %v", sp.Kind, sp.Name, sp.Dur)
		}
	}
	if eval.Dur > line.Dur {
		t.Errorf("eval dur %v exceeds enclosing line dur %v", eval.Dur, line.Dur)
	}
	if cb.Dur > line.Dur {
		t.Errorf("callback dur %v exceeds enclosing line dur %v", cb.Dur, line.Dur)
	}
	if xp.Dur != 0 {
		t.Errorf("instant dur = %v, want 0", xp.Dur)
	}

	// Serve-mode aggregation: the dump keys the session's spans by its
	// id.
	var sb strings.Builder
	if err := sm.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans map[string][]obs.Span `json:"spans"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &dump); err != nil {
		t.Fatalf("serve dump: %v", err)
	}
	if got := dump.Spans[c.id]; len(got) == 0 || findSpan(got, "line", "%sendClick hello") == nil {
		t.Fatalf("serve dump misses %s's spans: %v", c.id, dump.Spans)
	}

	c.send("%quit")
	waitDrained(t, srv)
}

// TestFlightTripOnSlowLine: a protocol line over the configured
// latency threshold snapshots metrics and spans to the flight
// directory.
func TestFlightTripOnSlowLine(t *testing.T) {
	dir := t.TempDir()
	w := core.NewTest()
	w.Flight = &obs.FlightRecorder{Dir: dir, Latency: time.Nanosecond, MinInterval: time.Nanosecond}
	m := w.EnableObservability()
	m.Trace.SetEnabled(true)
	f := New(w, nil, &syncBuffer{})
	f.HandleAppLine("%echo hi")
	if m.Flight.Dumps.Load() != 1 {
		t.Fatalf("dumps = %d, want 1", m.Flight.Dumps.Load())
	}
	files, err := filepath.Glob(filepath.Join(dir, "wafe-flight-*-line_latency.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("flight files = %v, %v", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"reason": "line_latency"`, "%echo hi", `"frontend.command_lines": 1`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("flight dump misses %s:\n%s", want, data)
		}
	}
	// Below-threshold lines do not trip once the threshold is real.
	m.Flight.Latency = time.Hour
	f.HandleAppLine("%echo fast")
	if m.Flight.Dumps.Load() != 1 {
		t.Error("fast line tripped the recorder")
	}
}

// TestServeFlightRecorderOnPanicAndRefusal: the shared flight recorder
// trips on serve-layer anomalies.
func TestServeFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	fr := &obs.FlightRecorder{Dir: dir, MinInterval: time.Nanosecond}
	srv, _ := startServer(t, ServeConfig{MaxSessions: 1, Flight: fr})

	c := dialServe(t, srv)
	defer c.conn.Close()
	// Second connection is refused — the recorder trips with the server
	// aggregate as its metrics source.
	extra, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer extra.Close()
	if line, err := bufio.NewReader(extra).ReadString('\n'); err != nil || !strings.Contains(line, "server full") {
		t.Fatalf("refusal line = %q, %v", line, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for fr.Dumps.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("refusal did not trip the flight recorder")
		}
		time.Sleep(time.Millisecond)
	}
	c.send("%quit")
	waitDrained(t, srv)
}
