package tcl

import (
	"os"
	"strings"
	"testing"
)

func TestSwitchRegexpMode(t *testing.T) {
	in := New()
	wantEval(t, in, `switch -regexp abc123 {{^[a-z]+[0-9]+$} {set r alnum} default {set r other}}`, "alnum")
	wantEval(t, in, `switch -regexp 999 {{^[a-z]+$} {set r alpha} default {set r dflt}}`, "dflt")
}

func TestSwitchInlinePairs(t *testing.T) {
	in := New()
	wantEval(t, in, "switch x a {set r 1} x {set r matched}", "matched")
	wantErr(t, in, "switch x a", "extra switch pattern")
}

func TestUpvarLevels(t *testing.T) {
	in := New()
	evalOK(t, in, `
		proc outer {} {
			set v outer-value
			inner
			return $v
		}
		proc inner {} {
			upvar 1 v localv
			set localv changed-by-inner
		}
	`)
	wantEval(t, in, "outer", "changed-by-inner")
	// upvar #0 reaches the global frame from any depth.
	evalOK(t, in, "set g top")
	evalOK(t, in, `proc deep {} {upvar #0 g gg; set gg modified}`)
	evalOK(t, in, `proc mid {} {deep}`)
	evalOK(t, in, "mid")
	wantEval(t, in, "set g", "modified")
}

func TestUplevelExpressions(t *testing.T) {
	in := New()
	evalOK(t, in, `proc runUp {script} {uplevel $script}`)
	evalOK(t, in, `proc caller {} {
		set x 5
		runUp {set x 99}
		return $x
	}`)
	wantEval(t, in, "caller", "99")
	wantEval(t, in, `uplevel #0 set topvar 7`, "7")
	wantEval(t, in, "set topvar", "7")
	wantErr(t, in, "uplevel #9 {set x 1}", "bad level")
}

func TestRenameDelete(t *testing.T) {
	in := New()
	evalOK(t, in, "proc gone {} {return x}")
	evalOK(t, in, `rename gone ""`)
	wantErr(t, in, "gone", "invalid command name")
	wantErr(t, in, "rename nosuch other", "doesn't exist")
}

func TestInfoCommandsGlob(t *testing.T) {
	in := New()
	res := evalOK(t, in, "info commands l*")
	for _, c := range []string{"lindex", "llength", "list"} {
		if !strings.Contains(res, c) {
			t.Errorf("info commands l* missing %s: %q", c, res)
		}
	}
	if strings.Contains(res, "set") {
		t.Errorf("glob filter leaked: %q", res)
	}
	wantEval(t, in, "info tclversion", "6.7")
	wantErr(t, in, "info bogusopt", "bad info option")
}

func TestInfoVarsLocals(t *testing.T) {
	in := New()
	evalOK(t, in, "set gv 1")
	evalOK(t, in, `proc p {} {
		set lv 2
		return [info vars]
	}`)
	res := evalOK(t, in, "p")
	if !strings.Contains(res, "lv") || strings.Contains(res, "gv") {
		t.Errorf("info vars in proc = %q", res)
	}
	res = evalOK(t, in, "info globals gv")
	if res != "gv" {
		t.Errorf("info globals = %q", res)
	}
}

func TestArrayErrors(t *testing.T) {
	in := New()
	evalOK(t, in, "set scalar 5")
	wantErr(t, in, "set scalar(x) 1", "isn't array")
	evalOK(t, in, "set arr(k) v")
	wantErr(t, in, "set arr other", "is array")
	wantErr(t, in, "unset arr(missing)", "no such element")
	wantErr(t, in, "unset neverexisted", "no such variable")
	evalOK(t, in, "array unset arr")
	wantEval(t, in, "array exists arr", "0")
	wantErr(t, in, "array set odd {a}", "even number")
}

func TestLsortCommand(t *testing.T) {
	in := New()
	evalOK(t, in, "proc bylen {a b} {expr [string length $a] - [string length $b]}")
	wantEval(t, in, "lsort -command bylen {ccc a bb}", "a bb ccc")
	wantErr(t, in, "lsort -integer {1 x}", "expected integer")
	wantErr(t, in, "lsort -bogus {a}", "bad lsort option")
}

func TestCatchReturnCodes(t *testing.T) {
	in := New()
	wantEval(t, in, "catch {break}", "3")
	wantEval(t, in, "catch {continue}", "4")
	wantEval(t, in, "proc r {} {return val}; catch {r}", "0")
	// Return inside catch at proc level.
	evalOK(t, in, `proc f {} {
		set code [catch {return inner} msg]
		return "code=$code msg=$msg"
	}`)
	// catch intercepts the return before it unwinds the proc.
	wantEval(t, in, "f", "code=2 msg=inner")
}

func TestScanEdgeCases(t *testing.T) {
	in := New()
	wantEval(t, in, "scan {x42} {x%d} n", "1")
	wantEval(t, in, "set n", "42")
	wantEval(t, in, "scan {a} {%c} code", "1")
	wantEval(t, in, "set code", "97")
	wantEval(t, in, "scan {} {%d} n2", "0")
	wantEval(t, in, "scan {-17 rest} {%d %s} neg word", "2")
	wantEval(t, in, "set neg", "-17")
	wantErr(t, in, "scan abc {%z} v", "bad scan conversion")
}

func TestRegexpIndices(t *testing.T) {
	in := New()
	wantEval(t, in, "regexp -indices {b+} abbbc loc", "1")
	wantEval(t, in, "set loc", "1 3")
}

func TestSourceCommand(t *testing.T) {
	in := New()
	dir := t.TempDir()
	file := dir + "/lib.tcl"
	if err := writeFile(file, "proc fromfile {} {return sourced}\nset loaded 1\n"); err != nil {
		t.Fatal(err)
	}
	evalOK(t, in, "source "+file)
	wantEval(t, in, "fromfile", "sourced")
	wantEval(t, in, "set loaded", "1")
	wantErr(t, in, "source /no/such/file.tcl", "couldn't read file")
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestExprStringComparisonFallback(t *testing.T) {
	in := New()
	wantEval(t, in, `expr {"10" < "9"}`, "0")    // numeric comparison
	wantEval(t, in, `expr {"abc" < "abd"}`, "1") // string comparison
	wantErr(t, in, `expr {"abc" + 1}`, "non-numeric")
}

func TestExprPrecedence(t *testing.T) {
	in := New()
	wantEval(t, in, "expr 2+3*4", "14")
	wantEval(t, in, "expr {1 << 2 + 1}", "8") // + binds tighter than <<
	wantEval(t, in, "expr {1 | 2 & 3}", "3")  // & tighter than |
	wantEval(t, in, "expr {0 == 1 < 2}", "0") // < tighter than ==
	wantEval(t, in, "expr {-2**2}", "4")      // unary minus applies to operand first
	wantEval(t, in, "expr {1 ? 2 : 3 ? 4 : 5}", "2")
}

func TestNestedArraysInExpr(t *testing.T) {
	in := New()
	evalOK(t, in, "set a(x) 4")
	evalOK(t, in, "set i x")
	wantEval(t, in, "expr {$a($i) * 2}", "8")
}

func TestSemicolonInsideBraces(t *testing.T) {
	in := New()
	wantEval(t, in, "set s {a;b}; set s", "a;b")
}

func TestCommentsOnlyAtCommandStart(t *testing.T) {
	in := New()
	// '#' mid-command is a literal word, not a comment.
	wantEval(t, in, "llength {a # b}", "3")
}

func TestDeepNesting(t *testing.T) {
	in := New()
	wantEval(t, in, "expr [expr [expr [expr 1+1]+1]+1]", "4")
	wantEval(t, in, "lindex [list [list [list deep]]] 0", "deep")
	wantEval(t, in, "lindex [list [list [list a b]]] 0", "{a b}")
}

func TestErrorInfoTraceback(t *testing.T) {
	in := New()
	evalOK(t, in, "proc innerP {} {error boom}")
	evalOK(t, in, "proc outerP {} {innerP}")
	if _, err := in.Eval("outerP"); err == nil {
		t.Fatal("expected error")
	}
	info, _ := in.GetGlobalVar("errorInfo")
	if !strings.Contains(info, "boom") {
		t.Errorf("errorInfo missing message: %q", info)
	}
	if !strings.Contains(info, `"innerP"`) || !strings.Contains(info, `"outerP"`) {
		t.Errorf("errorInfo missing frames: %q", info)
	}
	// A caught error resets the traceback for the next one.
	evalOK(t, in, "catch {outerP}")
	if _, err := in.Eval("error second"); err == nil {
		t.Fatal("expected error")
	}
	info, _ = in.GetGlobalVar("errorInfo")
	if !strings.HasPrefix(info, "second") && !strings.Contains(info, "second") {
		t.Errorf("stale errorInfo: %q", info)
	}
	if strings.Contains(info, "boom") {
		t.Errorf("old traceback leaked: %q", info)
	}
}
