package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wafe/internal/tcl"
)

// TestWhyGolden pins the -why output for a fixture covering every
// dispatch decision: specialized set/incr/expr/exprTmpl/while/for,
// each generic-fallback reason, proc-body labeling and if-arm sites.
func TestWhyGolden(t *testing.T) {
	src, err := os.ReadFile("testdata/why_sites.wafe")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/why_sites.why")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range ExplainFile("why_sites.wafe", string(src)) {
		got.WriteString(r.String())
		got.WriteString("\n")
	}
	if got.String() != string(golden) {
		t.Errorf("-why mismatch\n--- got ---\n%s--- want ---\n%s", got.String(), golden)
	}
}

// TestWhyDemosGolden pins the -why label and reason of every command
// site in the shipped demos. The file names are spelled as
// `wafecheck -why demos/` prints them, so the golden is byte for byte
// that command's output.
func TestWhyDemosGolden(t *testing.T) {
	demos, err := filepath.Glob("../../demos/*.wafe")
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demos found: %v", err)
	}
	var got strings.Builder
	for _, path := range demos {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ExplainFile("demos/"+filepath.Base(path), string(src)) {
			got.WriteString(r.String())
			got.WriteString("\n")
		}
	}
	const path = "testdata/why_demos.golden"
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote missing golden %s; review it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("-why over the demos drifted\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// TestWhyCountersCrossCheck validates -why labels against the VM's own
// dispatch counters. The script is straight-line with single-iteration
// loops, so every labeled site dispatches exactly once: the number of
// sites labeled specialized must equal the specialized dispatch total,
// and the generic sites must equal the opInvoke count.
func TestWhyCountersCrossCheck(t *testing.T) {
	const src = `set a 1
set b $a
incr a
incr a 5
expr {$a + 2}
expr $a > 3
set w 1
while {$w} {set w 0}
for {set i 0} {$i < 1} {incr i} {}
`
	reports := ExplainFile("cross.wafe", src)
	specialized, generic := 0, 0
	for _, r := range reports {
		if r.Specialized {
			specialized++
		} else {
			generic++
		}
	}

	in := tcl.New()
	in.Stdout = func(string) {}
	dc := in.CountDispatch()
	if _, err := in.Eval(src); err != nil {
		t.Fatalf("eval: %v", err)
	}
	if got := dc.SpecializedTotal(); got != int64(specialized) {
		t.Errorf("specialized sites = %d but VM made %d specialized dispatches (%+v)", specialized, got, *dc)
	}
	if dc.Invoke != int64(generic) {
		t.Errorf("generic sites = %d but VM made %d generic dispatches (%+v)", generic, dc.Invoke, *dc)
	}
}

// TestWhySpecializationFlip is the deopt-fix loop -why exists for: a
// quoted while condition forces generic dispatch; bracing it flips the
// loop onto the specialized path. Both the labels and the runtime
// counters must flip together.
func TestWhySpecializationFlip(t *testing.T) {
	// The quoted condition is substituted once, before while runs: it
	// freezes to "5 < 2" (false — the loop never iterates). Starting
	// from 0 it would freeze to "0 < 2" and spin forever, which is
	// precisely the bug class the deopt reason warns about.
	const broken = `set i 5
while "$i < 2" {incr i}
`
	const fixed = `set i 0
while {$i < 2} {incr i}
`
	whileReport := func(src string) SiteReport {
		for _, r := range ExplainFile("flip.wafe", src) {
			if r.Cmd == "while" {
				return r
			}
		}
		t.Fatal("no while site labeled")
		return SiteReport{}
	}
	run := func(src string) *tcl.DispatchCounts {
		in := tcl.New()
		in.Stdout = func(string) {}
		dc := in.CountDispatch()
		if _, err := in.Eval(src); err != nil {
			t.Fatalf("eval: %v", err)
		}
		return dc
	}

	b := whileReport(broken)
	if b.Specialized {
		t.Fatalf("quoted condition labeled specialized: %s", b.String())
	}
	if !strings.Contains(b.Reason, "condition is not a literal word") {
		t.Errorf("unhelpful deopt reason: %q", b.Reason)
	}
	bc := run(broken)
	if bc.While != 0 {
		t.Errorf("broken loop used the specialized while path %d times", bc.While)
	}
	if bc.Invoke == 0 {
		t.Error("broken loop made no generic dispatches")
	}

	f := whileReport(fixed)
	if !f.Specialized {
		t.Fatalf("braced condition labeled generic: %s", f.String())
	}
	fc := run(fixed)
	if fc.While != 1 {
		t.Errorf("fixed loop dispatched opWhile %d times, want 1", fc.While)
	}
	if fc.Incr != 2 {
		t.Errorf("fixed loop dispatched opIncr %d times, want 2", fc.Incr)
	}
	if fc.Invoke != 0 {
		t.Errorf("fixed loop still made %d generic dispatches", fc.Invoke)
	}
}
