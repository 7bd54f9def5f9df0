package core

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"wafe/internal/obs"
	"wafe/internal/tcl"
)

// TestStatisticsFilter: the optional pattern argument glob-filters the
// metric names.
func TestStatisticsFilter(t *testing.T) {
	w := NewTest()
	eval(t, w, "set x 1")
	all := eval(t, w, "statistics")
	if !strings.Contains(all, "tcl.evals") || !strings.Contains(all, "frontend.command_lines") {
		t.Fatalf("statistics = %.200q", all)
	}
	filtered := eval(t, w, "statistics tcl.*")
	fields, err := tcl.ParseList(filtered)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 || len(fields)%2 != 0 {
		t.Fatalf("filtered statistics = %q", filtered)
	}
	for i := 0; i < len(fields); i += 2 {
		if !strings.HasPrefix(fields[i], "tcl.") {
			t.Errorf("filter leaked %s", fields[i])
		}
	}
	if none := eval(t, w, "statistics does.not.match.*"); none != "" {
		t.Errorf("unmatched filter = %q", none)
	}
	evalErr(t, w, "statistics a b", "wrong # args")
}

// TestTraceCommands: traceOn with a ring size bounds the span ring,
// trace spans/tree render the recorded forest, trace clear drops it.
func TestTraceCommands(t *testing.T) {
	w := NewTest()
	eval(t, w, "traceOn 4")
	for i := 0; i < 10; i++ {
		eval(t, w, "set x 1")
	}
	spans := eval(t, w, "trace spans")
	entries, err := tcl.ParseList(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Ring size 4 bounds the retained spans.
	if len(entries) != 4 {
		t.Errorf("trace spans kept %d entries, want 4", len(entries))
	}
	for _, e := range entries {
		f, err := tcl.ParseList(e)
		if err != nil || len(f) != 5 {
			t.Errorf("span entry %q: %d fields, err %v", e, len(f), err)
		} else if f[2] != "eval" || f[3] != "set x 1" {
			t.Errorf("span entry fields = %q", f)
		}
	}
	tree := eval(t, w, "trace tree")
	if !strings.Contains(tree, `eval "set x 1"`) {
		t.Errorf("trace tree = %q", tree)
	}
	// Clear drops the recorded spans ("trace clear" itself records a
	// fresh eval span once its own evaluation completes).
	eval(t, w, "trace clear")
	if got := eval(t, w, "trace spans"); strings.Contains(got, "set x 1") {
		t.Errorf("spans after clear = %q", got)
	}
	evalErr(t, w, "trace bogus", "unknown subcommand")
	evalErr(t, w, "traceOn zero", `expected integer but got "zero"`)
	evalErr(t, w, "traceOn 0", "positive ring size")
	eval(t, w, "traceOff")
}

// TestTraceTreeSubtree: trace tree <id> renders only that span's
// subtree.
func TestTraceTreeSubtree(t *testing.T) {
	w := NewTest()
	m := w.EnableObservability()
	m.Trace.SetEnabled(true)
	outer := m.Trace.StartSpan("line", "%outer")
	m.Trace.StartSpan("eval", "inner").End()
	outer.End()
	m.Trace.StartSpan("line", "%other").End()
	m.Trace.SetEnabled(false)

	full := eval(t, w, "trace tree")
	if !strings.Contains(full, "%outer") || !strings.Contains(full, "%other") {
		t.Fatalf("full tree = %q", full)
	}
	spans := m.Trace.Spans()
	var outerID uint64
	for _, sp := range spans {
		if sp.Name == "%outer" {
			outerID = sp.ID
		}
	}
	sub := eval(t, w, "trace tree "+strconv.FormatUint(outerID, 10))
	if !strings.Contains(sub, "%outer") || !strings.Contains(sub, "inner") || strings.Contains(sub, "%other") {
		t.Errorf("subtree = %q", sub)
	}
	evalErr(t, w, "trace tree notanid", "expected span id")
}

// dumpedProfile decodes w's profileDump document into the profiled
// total and the row of each proc.
func dumpedProfile(t *testing.T, w *Wafe) (int64, map[string]obs.ProfStat) {
	t.Helper()
	var d struct {
		TotalNs int64                   `json:"total_ns"`
		Procs   map[string]obs.ProfStat `json:"procs"`
	}
	if err := json.Unmarshal([]byte(eval(t, w, "profileDump")), &d); err != nil {
		t.Fatal(err)
	}
	return d.TotalNs, d.Procs
}

// TestProfileCommands drives the profileOn/profileOff/profileDump
// cycle over Tcl.
func TestProfileCommands(t *testing.T) {
	w := NewTest()
	evalErr(t, w, "profileDump", "no profile recorded")
	eval(t, w, "profileOn")
	eval(t, w, "proc work {} { set s 0; set s 1 }")
	eval(t, w, "work")
	eval(t, w, "profileOff")
	doc := eval(t, w, "profileDump")
	for _, want := range []string{`"procs"`, `"work"`, `"commands"`, `"total_ns"`} {
		if !strings.Contains(doc, want) {
			t.Errorf("profileDump misses %s: %.300q", want, doc)
		}
	}
	folded := eval(t, w, "profileDump -folded")
	if !strings.Contains(folded, "<top>;work ") {
		t.Errorf("folded = %q", folded)
	}
	// Evals after profileOff are not recorded.
	p := w.profiler
	before, _ := dumpedProfile(t, w)
	eval(t, w, "work")
	if after, _ := dumpedProfile(t, w); after != before {
		t.Error("profiler kept recording after profileOff")
	}
	// profileOn opens a fresh window.
	eval(t, w, "profileOn")
	eval(t, w, "set y 1")
	eval(t, w, "profileOff")
	if w.profiler == p {
		t.Error("profileOn reused the old profiler")
	}
	if _, procs := dumpedProfile(t, w); procs["work"].Count != 0 {
		t.Errorf("fresh profiler inherited work count %d", procs["work"].Count)
	}
	evalErr(t, w, "profileDump -folded extra junk", "wrong # args")
}

// TestTraceRingSizeStaged: a TraceRingSize staged on the Wafe before
// observability exists is applied when it is enabled lazily.
func TestTraceRingSizeStaged(t *testing.T) {
	w := NewTest()
	w.TraceRingSize = 7
	m := w.EnableObservability()
	m.Trace.SetEnabled(true)
	for i := 0; i < 10; i++ {
		m.Trace.Instant("test", "fill")
	}
	if got := len(m.Trace.Spans()); got != 7 {
		t.Errorf("ring holds %d spans, want staged 7", got)
	}
	// Idempotent enable keeps the registry.
	if w.EnableObservability() != m {
		t.Error("EnableObservability not idempotent")
	}
}

// TestFlightStaged: a recorder staged on the Wafe is attached at
// enable time.
func TestFlightStaged(t *testing.T) {
	w := NewTest()
	fr := &obs.FlightRecorder{Dir: t.TempDir()}
	w.Flight = fr
	if m := w.EnableObservability(); m.Flight != fr {
		t.Error("staged flight recorder not attached")
	}
}
