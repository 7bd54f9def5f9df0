package tcl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wafe/internal/obs"
)

// profileOf decodes p's JSON dump into the profiled total and the row
// of each proc.
func profileOf(t *testing.T, p *obs.Profiler) (int64, map[string]obs.ProfStat) {
	t.Helper()
	var b strings.Builder
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var d struct {
		TotalNs int64                   `json:"total_ns"`
		Procs   map[string]obs.ProfStat `json:"procs"`
	}
	if err := json.Unmarshal([]byte(b.String()), &d); err != nil {
		t.Fatal(err)
	}
	return d.TotalNs, d.Procs
}

// TestProfilerHotLoopAttribution is the acceptance check for the
// profiler: a synthetic hot loop inside one proc must get at least 95%
// of the profiled time attributed to that proc (cumulative) and the
// command table must carry sites with the proc's own line numbers.
func TestProfilerHotLoopAttribution(t *testing.T) {
	in := New()
	evalOK(t, in, `proc cold {} { set a 1 }
proc hot {} {
	set s 0
	for {set i 0} {$i < 40000} {incr i} {
		set s [expr {$s + $i}]
	}
	return $s
}`)
	p := obs.NewProfiler()
	p.Start()
	in.SetProfiler(p)
	evalOK(t, in, "cold")
	got := evalOK(t, in, "hot")
	p.Stop()
	in.SetProfiler(nil)
	if got != "799980000" {
		t.Fatalf("hot = %q", got)
	}

	total, procs := profileOf(t, p)
	if total <= 0 {
		t.Fatal("no profiled time recorded")
	}
	hot := procs["hot"]
	if hot.Count != 1 {
		t.Errorf("hot count = %d", hot.Count)
	}
	if frac := float64(hot.CumNs) / float64(total); frac < 0.95 {
		t.Errorf("hot proc gets %.1f%% of total, want >= 95%% (hot %dns of %dns)",
			frac*100, hot.CumNs, total)
	}
	// Proc self time excludes child procs only (proc-level flamegraph
	// frames); hot calls no procs, so self == cum here.
	if hot.SelfNs > hot.CumNs {
		t.Errorf("hot self %dns > cum %dns", hot.SelfNs, hot.CumNs)
	}

	// The command table attributes each invocation to its proc and the
	// line inside the evaluated script: "for@hot:3" is the loop command
	// (line 3 of hot's body); the loop body is its own one-line script,
	// so its set/expr sites are "...@hot:1".
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	for _, site := range []string{`for@hot:3`, `set@hot:1`, `expr@hot:1`, `set@cold:1`} {
		if !strings.Contains(doc, site) {
			t.Errorf("profile misses site %s:\n%.400s", site, doc)
		}
	}
	// The for command's cumulative time dominates: nearly the whole
	// proc runs inside it.
	forCum := siteCum(t, p, "for@hot:3")
	if frac := float64(forCum) / float64(total); frac < 0.90 {
		t.Errorf("for loop gets %.1f%% of total, want >= 90%%", frac*100)
	}
	// Folded stacks carry the rooted proc path.
	if folded := p.Folded(); !strings.Contains(folded, "<top>;hot ") {
		t.Errorf("folded = %q", folded)
	}
}

// siteCum digs one command site's cumulative nanoseconds out of the
// JSON dump (the profiler has no public per-site accessor).
func siteCum(t *testing.T, p *obs.Profiler, site string) int64 {
	t.Helper()
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	i := strings.Index(doc, `"`+site+`"`)
	if i < 0 {
		t.Fatalf("site %s missing", site)
	}
	j := strings.Index(doc[i:], `"cum_ns":`)
	if j < 0 {
		t.Fatalf("site %s has no cum_ns", site)
	}
	rest := doc[i+j+len(`"cum_ns":`):]
	end := strings.IndexAny(rest, ",}")
	var n int64
	for _, c := range rest[:end] {
		if c < '0' || c > '9' {
			t.Fatalf("bad cum_ns %q", rest[:end])
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// TestProfilerRunsOnVM: opening a profiling window does not change
// engines. The hot loop's specialized opcodes dispatch while the
// profiler records their sites.
func TestProfilerRunsOnVM(t *testing.T) {
	in := New()
	setup, calls, _ := strings.Cut(profGoldenHotLoop, "\n\n")
	evalOK(t, in, setup)
	p := obs.NewProfiler()
	p.Start()
	in.SetProfiler(p)
	dc := in.CountDispatch()
	evalOK(t, in, calls)
	p.Stop()
	in.SetProfiler(nil)
	// Generic: the cold and hot calls and hot's return. Specialized:
	// cold's set, hot's `set s 0`, the for init and 40000 loop-body
	// sets; one for; 40000 incr and expr dispatches.
	want := DispatchCounts{Invoke: 3, Set: 40003, Incr: 40000, Expr: 40000, For: 1}
	if *dc != want {
		t.Errorf("dispatches in the profiling window = %+v, want %+v", *dc, want)
	}
}

// TestProfilerOpenedMidScript: a Go command that opens the profiler
// partway through a script, here inside a loop body, gets every later
// command attributed: the rest of the body, the loop's next script,
// later iterations, and the commands after the loop.
func TestProfilerOpenedMidScript(t *testing.T) {
	in := New()
	p := obs.NewProfiler()
	in.RegisterCommand("startprof", func(in *Interp, argv []string) (string, error) {
		p.Start()
		in.SetProfiler(p)
		return "", nil
	})
	evalOK(t, in, "proc f {} {return 1}")
	evalOK(t, in, `set a 1
for {set i 0} {$i < 3} {incr i} {if {$i == 1} startprof; set x $i}
f`)
	p.Stop()
	in.SetProfiler(nil)
	const want = `proc f 1
site f@<top>:3 1
site if@<top>:1 1
site incr@<top>:1 2
site return@f:1 1
site set@<top>:1 2
`
	if got := profileCounts(t, p); got != want {
		t.Errorf("profile after a mid-script profileOn:\n%swant:\n%s", got, want)
	}
}

// TestProfilerOffInsideProfiledCommand: profileOff runs as a command
// inside a pending profiled activation (the interpreter is mid-
// profExecCmd when SetProfiler(nil) clears the stacks); the guarded
// pops must keep the interpreter alive and later evals unprofiled.
func TestProfilerOffInsideProfiledCommand(t *testing.T) {
	in := New()
	p := obs.NewProfiler()
	detach := func(*Interp, []string) (string, error) {
		p.Stop()
		in.SetProfiler(nil)
		return "", nil
	}
	in.RegisterCommand("detachprof", detach)
	p.Start()
	in.SetProfiler(p)
	evalOK(t, in, "proc q {} { detachprof; set x 1 }")
	evalOK(t, in, "q")
	if in.prof != nil {
		t.Fatal("profiler still attached")
	}
	// The interpreter keeps working, unprofiled.
	wantEval(t, in, "set y 2", "2")
	// The proc closer ran after detach with the captured profiler;
	// both recording or dropping are acceptable — what matters is no
	// panic and no negative accounting.
	if _, procs := profileOf(t, p); procs["q"].SelfNs < 0 || procs["q"].CumNs < 0 {
		t.Errorf("negative accounting: %+v", procs["q"])
	}
}

// TestProfilerSpanOnEval: with a registry attached, a top-level eval
// opens an eval span and proc calls nest under it.
func TestProfilerSpanOnEval(t *testing.T) {
	in := New()
	m := obs.New()
	m.Trace.SetEnabled(true)
	in.SetMetrics(m)
	evalOK(t, in, "proc f {} { return 1 }")
	evalOK(t, in, "f")
	in.SetMetrics(nil)
	spans := m.Trace.Spans()
	var evalSpan, procSpan *obs.Span
	for i := range spans {
		sp := &spans[i]
		switch {
		case sp.Kind == "eval" && sp.Name == "f":
			evalSpan = sp
		case sp.Kind == "proc" && sp.Name == "f":
			procSpan = sp
		}
	}
	if evalSpan == nil || procSpan == nil {
		t.Fatalf("spans = %+v", spans)
	}
	if procSpan.Parent != evalSpan.ID {
		t.Errorf("proc span parent = %d, want eval id %d", procSpan.Parent, evalSpan.ID)
	}
}

// profGoldenHotLoop is the hot-loop script of
// TestProfilerHotLoopAttribution: the procs are defined unprofiled,
// then profileGoldenRun profiles the calls after the blank line.
const profGoldenHotLoop = `proc cold {} { set a 1 }
proc hot {} {
	set s 0
	for {set i 0} {$i < 40000} {incr i} {
		set s [expr {$s + $i}]
	}
	return $s
}

cold
hot`

// profileCounts renders what a profile attributed, without times: one
// "proc NAME COUNT" line per proc, then one "site SITE COUNT" line per
// command site, each group sorted.
func profileCounts(t *testing.T, p *obs.Profiler) string {
	t.Helper()
	var sb strings.Builder
	if err := p.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Procs    map[string]obs.ProfStat `json:"procs"`
		Commands map[string]obs.ProfStat `json:"commands"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &d); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, group := range []struct {
		kind string
		m    map[string]obs.ProfStat
	}{{"proc", d.Procs}, {"site", d.Commands}} {
		keys := make([]string, 0, len(group.m))
		for k := range group.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s %d\n", group.kind, k, group.m[k].Count)
		}
	}
	return b.String()
}

// TestProfileSitesGolden pins which commands the profiler attributes
// and how it names them: for every script of the shared differential
// corpus, profiled from its first command, and for the hot loop, the
// sorted sites and procs with their call counts. Times are left out,
// so the record is deterministic.
func TestProfileSitesGolden(t *testing.T) {
	var b strings.Builder
	run := func(label, setup, src string) {
		in := New()
		if setup != "" {
			evalOK(t, in, setup)
		}
		p := obs.NewProfiler()
		p.Start()
		in.SetProfiler(p)
		_, _ = in.Eval(src)
		p.Stop()
		in.SetProfiler(nil)
		fmt.Fprintf(&b, "== %s\n%s", label, profileCounts(t, p))
	}
	for i, src := range differentialCorpus {
		run(fmt.Sprintf("corpus %d", i), "", src)
	}
	setup, calls, _ := strings.Cut(profGoldenHotLoop, "\n\n")
	run("hot loop", setup, calls)
	checkGolden(t, filepath.Join("testdata", "profile_sites.golden"), b.String())
}

// checkGolden compares got with the golden file at path, writing the
// file when it is missing (the test then fails, so a fresh golden is
// always reviewed before it is trusted).
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing golden %s; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s:%d drifted\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
