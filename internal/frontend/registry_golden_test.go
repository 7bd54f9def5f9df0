package frontend

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"wafe/internal/core"
	"wafe/internal/obs"
)

// TestRegistryGolden pins what the metrics registry reports: every
// statistics sample of an app session that runs a fixed script, and
// the server.* samples of a serve run of two sessions (one ended, one
// live) as the dump document and the /metrics text give them,
// per-session series included. A sample's name, its place and its
// count are compared; time-valued samples (*_ns, *uptime*, histogram
// buckets and sums) by name only. Session ids become A and B, in the
// order the sessions start. Regenerate with WAFE_UPDATE_GOLDEN=1 only
// for an intended change, and review the diff.
func TestRegistryGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# app session: statistics\n")
	for _, s := range appSessionSamples(t) {
		writeSample(&b, s.Name, s.Value)
	}
	doc, prom := serveRunSamples(t)
	b.WriteString("# serve: the dump document's server object\n")
	b.WriteString(doc)
	b.WriteString("# serve: the /metrics text's server families\n")
	b.WriteString(prom)

	golden := filepath.Join("testdata", "registry.golden")
	if os.Getenv("WAFE_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with WAFE_UPDATE_GOLDEN=1)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("registry differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// timeValued reports whether a sample's value is a duration or an
// instant, which the golden records by name only.
func timeValued(name string) bool {
	return strings.HasSuffix(name, "_ns") || strings.Contains(name, "uptime") ||
		strings.Contains(name, "_bucket") || strings.HasSuffix(name, "_sum")
}

func writeSample(b *strings.Builder, name string, v int64) {
	if timeValued(name) {
		fmt.Fprintln(b, name)
		return
	}
	fmt.Fprintln(b, name, v)
}

// registryScript is the app session's fixed script: widgets, a
// callback, an action, sendKeys, a failing command line, an overlong
// line and a passed line.
var registryScript = []string{
	"%form top topLevel",
	"%command b top label Go callback {echo pressed}",
	"%asciiText fld top fromVert b editType edit width 200",
	"%action fld override {<KeyPress>: insert-char() exec(echo typed %a)}",
	"%realize",
	"%sendClick b",
	"%sendKeys fld Hi",
	"%set n [expr {6*7}]",
	"%nosuchcommand",
	"%" + strings.Repeat("x", 300),
	"a passed line",
	"%echo [gV fld string]",
	"%echo [gV fld string]",
}

func appSessionSamples(t *testing.T) []obs.Sample {
	t.Helper()
	w := core.NewTest()
	defer w.Close()
	term := &syncBuffer{}
	f := New(w, &Options{Prefix: '%', LineLimit: 200}, term)
	var replies []string
	w.Interp.Stdout = func(line string) { replies = append(replies, line) }
	m := w.EnableObservability()
	for _, line := range registryScript {
		f.HandleAppLine(line)
	}
	if want := []string{"pressed", "typed", "typed H", "typed i", "Hi", "Hi"}; strings.Join(replies, "|") != strings.Join(want, "|") {
		t.Errorf("replies = %q, want %q", replies, want)
	}
	return m.Snapshot()
}

// serveRunSamples runs two serve sessions over net.Pipe, ends the
// first and returns the server.* samples of the dump document and of
// the /metrics text, session ids replaced by A and B.
func serveRunSamples(t *testing.T) (doc, prom string) {
	t.Helper()
	log := &syncBuffer{}
	srv, sm := startServer(t, ServeConfig{Log: log, Opts: &Options{Prefix: '%', LineLimit: 200, AppName: "wafe"}})
	start := func() *client {
		clientEnd, serverEnd := net.Pipe()
		if _, err := srv.StartConn(serverEnd); err != nil {
			t.Fatal(err)
		}
		c := attachClient(t, clientEnd)
		t.Cleanup(func() { clientEnd.Close() })
		return c
	}
	// Every line is answered before the next is sent, on the pipe or in
	// the log, so no line waits in a queue behind another.
	expect := func(c *client, line, reply string) {
		t.Helper()
		c.send(line)
		if got := c.readLine(); got != reply {
			t.Fatalf("session %s: %q answered %q, want %q", c.id, line, got, reply)
		}
	}
	logged := func(c *client, line, text string) {
		t.Helper()
		c.send(line)
		waitFor(t, func() bool { return strings.Contains(log.String(), "["+c.id+"] "+text) })
	}
	a, bc := start(), start()
	expect(a, "%label l topLevel label a; echo made", "made")
	expect(a, "%echo [gV l label]", "a")
	logged(a, "%nosuchcmd", "wafe: error in command")
	expect(bc, "%echo [set v 7]", "7")
	logged(bc, "a passed line", "a passed line")
	logged(bc, "%"+strings.Repeat("y", 300), "wafe: command line exceeds")
	expect(bc, "%echo [expr {$v*6}]", "42")
	expect(bc, "%echo done", "done")
	a.send("%quit")
	waitFor(t, func() bool { return sm.SessionEnds.Snapshot()["quit"] == 1 })
	// The live session's last line has been timed once its latency
	// histogram holds all five lines.
	srv.mu.Lock()
	live := srv.sessions[bc.id].s.W.Metrics
	srv.mu.Unlock()
	waitFor(t, func() bool { return live.Frontend.LineLatency.Count() == 5 })

	ids := strings.NewReplacer(`"`+a.id+`"`, `"A"`, `"`+bc.id+`"`, `"B"`)

	var js strings.Builder
	if err := sm.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Server map[string]int64 `json:"server"`
	}
	if err := json.Unmarshal([]byte(js.String()), &d); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(d.Server))
	for name := range d.Server {
		names = append(names, name)
	}
	sort.Strings(names)
	var db strings.Builder
	for _, name := range names {
		writeSample(&db, name, d.Server[name])
	}

	var text strings.Builder
	if err := sm.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n") {
		if !strings.Contains(line, "wafe_server_") {
			continue
		}
		line = ids.Replace(line)
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") && timeValued(name) {
			line = name
		}
		lines = append(lines, line)
	}
	// A family's series come in label order, and the order of two ids
	// depends on their digits; A and B sort the same way always.
	for i := 0; i < len(lines); {
		j := i + 1
		if strings.Contains(lines[i], `{session="`) {
			for j < len(lines) && strings.Contains(lines[j], `{session="`) {
				j++
			}
			sort.Strings(lines[i:j])
		}
		i = j
	}
	return db.String(), strings.Join(lines, "\n") + "\n"
}

// waitFor polls cond until it holds, for at most ten seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10 s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
