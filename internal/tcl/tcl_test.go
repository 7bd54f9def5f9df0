package tcl

import (
	"slices"
	"strings"
	"testing"
)

// evalOK evaluates a script and fails the test on error.
func evalOK(t *testing.T, in *Interp, script string) string {
	t.Helper()
	res, err := in.Eval(script)
	if err != nil {
		t.Fatalf("Eval(%q) error: %v", script, err)
	}
	return res
}

func wantEval(t *testing.T, in *Interp, script, want string) {
	t.Helper()
	got := evalOK(t, in, script)
	if got != want {
		t.Errorf("Eval(%q) = %q, want %q", script, got, want)
	}
}

// collect returns a Stdout that appends each line puts or echo writes
// to b.
func collect(b *strings.Builder) func(string) {
	return func(line string) {
		b.WriteString(line)
		b.WriteByte('\n')
	}
}

func wantErr(t *testing.T, in *Interp, script, substr string) {
	t.Helper()
	_, err := in.Eval(script)
	if err == nil {
		t.Fatalf("Eval(%q) expected error containing %q, got nil", script, substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("Eval(%q) error %q does not contain %q", script, err, substr)
	}
}

func TestSetAndGet(t *testing.T) {
	in := New()
	wantEval(t, in, "set x 42", "42")
	wantEval(t, in, "set x", "42")
	wantEval(t, in, "set y $x", "42")
	wantErr(t, in, "set nosuchvar", "no such variable")
}

func TestVariableSubstitutionForms(t *testing.T) {
	in := New()
	evalOK(t, in, "set a hello")
	wantEval(t, in, `set b "$a world"`, "hello world")
	wantEval(t, in, `set c ${a}x`, "hellox")
	wantEval(t, in, `set d $a$a`, "hellohello")
}

func TestArrayVariables(t *testing.T) {
	in := New()
	wantEval(t, in, "set a(x) 1", "1")
	wantEval(t, in, "set a(y) 2", "2")
	wantEval(t, in, `set a(x)`, "1")
	wantEval(t, in, "set k x; set a($k)", "1")
	wantEval(t, in, "array size a", "2")
	wantEval(t, in, "array names a", "x y")
	wantEval(t, in, "array exists a", "1")
	wantEval(t, in, "array exists nope", "0")
	wantEval(t, in, "array get a", "x 1 y 2")
	evalOK(t, in, "array set b {one 1 two 2}")
	wantEval(t, in, "set b(two)", "2")
	wantEval(t, in, "unset a(x); array size a", "1")
	wantErr(t, in, "set a", "variable is array")
}

func TestCommandSubstitution(t *testing.T) {
	in := New()
	wantEval(t, in, "set x [expr 1+2]", "3")
	wantEval(t, in, `set y "result=[expr 2*3]"`, "result=6")
	// Nested brackets.
	wantEval(t, in, "set z [expr [expr 1+1]*3]", "6")
}

func TestBracesPreventSubstitution(t *testing.T) {
	in := New()
	evalOK(t, in, "set x 5")
	wantEval(t, in, `set y {$x [expr 1]}`, "$x [expr 1]")
}

func TestBackslashEscapes(t *testing.T) {
	in := New()
	wantEval(t, in, `set x "a\tb"`, "a\tb")
	wantEval(t, in, `set x "a\nb"`, "a\nb")
	wantEval(t, in, `set x \$notavar`, "$notavar")
	wantEval(t, in, `set x "\x41"`, "A")
	wantEval(t, in, `set x "\101"`, "A")
	wantEval(t, in, `set x "A"`, "A")
}

func TestLineContinuation(t *testing.T) {
	in := New()
	wantEval(t, in, "set x \\\n 7", "7")
	wantEval(t, in, "expr 1 + \\\n 2", "3")
}

func TestComments(t *testing.T) {
	in := New()
	wantEval(t, in, "# a comment\nset x 3", "3")
	wantEval(t, in, "set x 4 ;# trailing words are args, not comments in the middle", "4")
}

func TestSemicolonSeparator(t *testing.T) {
	in := New()
	wantEval(t, in, "set a 1; set b 2; expr $a+$b", "3")
}

func TestIfElseifElse(t *testing.T) {
	in := New()
	wantEval(t, in, "if {1} {set r yes}", "yes")
	wantEval(t, in, "if {0} {set r yes} else {set r no}", "no")
	wantEval(t, in, "if {0} {set r a} elseif {1} {set r b} else {set r c}", "b")
	wantEval(t, in, "if 0 {set r a} {set r implicit-else}", "implicit-else")
	wantEval(t, in, "if 1 then {set r then-form}", "then-form")
}

func TestWhileLoop(t *testing.T) {
	in := New()
	wantEval(t, in, "set i 0; set s 0; while {$i < 5} {incr s $i; incr i}; set s", "10")
}

func TestForLoop(t *testing.T) {
	in := New()
	wantEval(t, in, "set s 0; for {set i 0} {$i < 4} {incr i} {incr s $i}; set s", "6")
}

func TestBreakContinue(t *testing.T) {
	in := New()
	wantEval(t, in, `
		set s {}
		for {set i 0} {$i < 10} {incr i} {
			if {$i == 3} continue
			if {$i == 6} break
			append s $i
		}
		set s`, "01245")
	wantErr(t, in, "break", "outside of a loop")
}

func TestForeach(t *testing.T) {
	in := New()
	wantEval(t, in, "set s {}; foreach x {a b c} {append s $x}; set s", "abc")
	wantEval(t, in, "set s {}; foreach {k v} {a 1 b 2} {append s $k=$v,}; set s", "a=1,b=2,")
	wantEval(t, in, "set s {}; foreach x {1 2 3} {if {$x==2} break; append s $x}; set s", "1")
}

func TestSwitch(t *testing.T) {
	in := New()
	wantEval(t, in, "switch b {a {set r 1} b {set r 2} default {set r 3}}", "2")
	wantEval(t, in, "switch zz {a {set r 1} default {set r dflt}}", "dflt")
	wantEval(t, in, "switch -glob foo.c {*.c {set r csrc} *.h {set r hdr}}", "csrc")
	wantEval(t, in, "switch -exact -- -x {-x {set r dash}}", "dash")
	// Fall-through bodies.
	wantEval(t, in, "switch a {a - b {set r ab} default {set r d}}", "ab")
	wantEval(t, in, "switch nomatch {a {set r 1}}", "")
}

func TestProcAndReturn(t *testing.T) {
	in := New()
	evalOK(t, in, "proc add {a b} {return [expr $a+$b]}")
	wantEval(t, in, "add 3 4", "7")
	evalOK(t, in, "proc last {a b} {expr $a*$b}")
	wantEval(t, in, "last 3 4", "12") // implicit return of last result
	evalOK(t, in, "proc dflt {a {b 10}} {expr $a+$b}")
	wantEval(t, in, "dflt 1", "11")
	wantEval(t, in, "dflt 1 2", "3")
	evalOK(t, in, "proc varargs {first args} {return [llength $args]}")
	wantEval(t, in, "varargs a b c d", "3")
	wantEval(t, in, "varargs a", "0")
	wantErr(t, in, "add 1", "no value given for parameter")
	wantErr(t, in, "add 1 2 3", "too many arguments")
}

func TestProcLocalScope(t *testing.T) {
	in := New()
	evalOK(t, in, "set x global-x")
	evalOK(t, in, "proc p {} {set x local-x; return $x}")
	wantEval(t, in, "p", "local-x")
	wantEval(t, in, "set x", "global-x")
}

func TestGlobalCommand(t *testing.T) {
	in := New()
	evalOK(t, in, "set counter 0")
	evalOK(t, in, "proc bump {} {global counter; incr counter}")
	evalOK(t, in, "bump; bump; bump")
	wantEval(t, in, "set counter", "3")
}

func TestUpvar(t *testing.T) {
	in := New()
	evalOK(t, in, "proc setit {varName val} {upvar $varName v; set v $val}")
	evalOK(t, in, "setit target 99")
	wantEval(t, in, "set target", "99")
}

func TestUplevel(t *testing.T) {
	in := New()
	evalOK(t, in, "proc up {} {uplevel {set fromup 5}}")
	evalOK(t, in, "up")
	wantEval(t, in, "set fromup", "5")
}

func TestCatch(t *testing.T) {
	in := New()
	wantEval(t, in, "catch {expr 1+1} r", "0")
	wantEval(t, in, "set r", "2")
	wantEval(t, in, "catch {error boom} msg", "1")
	wantEval(t, in, "set msg", "boom")
	wantEval(t, in, "catch {nosuchcommand}", "1")
	wantEval(t, in, "proc f {} {return early; set never 1}; catch {f} v; set v", "early")
}

func TestErrorCommand(t *testing.T) {
	in := New()
	wantErr(t, in, "error {my message}", "my message")
	// The optional words set errorInfo and errorCode, with the values
	// tclsh 8.6 gives them: a non-empty info word begins the traceback
	// and the error command's own line is left out.
	wantEval(t, in, "catch {error msg myinfo mycode} r; list $r $errorInfo $errorCode", "msg myinfo mycode")
	wantErr(t, in, "error top infotop", "top")
	wantEval(t, in, "set errorInfo", "infotop")
	wantEval(t, in, "proc f {} {error boom fromf}\ncatch f; set errorInfo", "fromf\n    (procedure \"f\" invoked as \"f\")")
	wantEval(t, in, "catch {error msg {} code2}; set errorCode", "code2")
	// Without an info word the traceback begins with the error
	// command's line, and without a code word errorCode is NONE.
	wantEval(t, in, "catch {error boom fromf CODE}; catch {error plain}; list $errorInfo $errorCode",
		"{plain\n    while executing\n\"error plain\"} NONE")
}

func TestEvalCommand(t *testing.T) {
	in := New()
	wantEval(t, in, "eval set ex 10", "10")
	wantEval(t, in, "eval {set ey 20}", "20")
	wantEval(t, in, "set cmd {set ez 30}; eval $cmd", "30")
}

func TestRename(t *testing.T) {
	in := New()
	evalOK(t, in, "proc orig {} {return hi}")
	evalOK(t, in, "rename orig fresh")
	wantEval(t, in, "fresh", "hi")
	wantErr(t, in, "orig", "invalid command name")
	// Registering the same command under various names (per the paper).
	evalOK(t, in, "proc sv {} {return both}")
	wantEval(t, in, "sv", "both")
}

func TestInfo(t *testing.T) {
	in := New()
	evalOK(t, in, "proc myproc {a b} {return x}")
	wantEval(t, in, "info exists nothere", "0")
	evalOK(t, in, "set here 1")
	wantEval(t, in, "info exists here", "1")
	wantEval(t, in, "info args myproc", "a b")
	wantEval(t, in, "info body myproc", "return x")
	if got := evalOK(t, in, "info procs my*"); got != "myproc" {
		t.Errorf("info procs = %q", got)
	}
	wantEval(t, in, "info level", "0")
	evalOK(t, in, "proc lvl {} {return [info level]}")
	wantEval(t, in, "lvl", "1")
}

func TestIncr(t *testing.T) {
	in := New()
	wantEval(t, in, "set i 5; incr i", "6")
	wantEval(t, in, "incr i 10", "16")
	wantEval(t, in, "incr i -1", "15")
	wantEval(t, in, "incr fresh", "1") // auto-create at 0
	wantErr(t, in, "set s abc; incr s", "expected integer")
}

func TestAppendCommand(t *testing.T) {
	in := New()
	wantEval(t, in, "append s a b c", "abc")
	wantEval(t, in, "append s d", "abcd")
}

func TestExprArithmetic(t *testing.T) {
	in := New()
	cases := [][2]string{
		{"expr 1+2", "3"},
		{"expr 10/3", "3"},
		{"expr -10/3", "-4"}, // floor division
		{"expr 10%3", "1"},
		{"expr -10%3", "2"}, // Tcl modulo sign follows divisor
		{"expr 2*3+4", "10"},
		{"expr 2*(3+4)", "14"},
		{"expr 7-10", "-3"},
		{"expr 1.5+2.5", "4.0"},
		{"expr 1e2", "100.0"},
		{"expr 0x10", "16"},
		{"expr 010", "8"}, // octal
		{"expr 2**10", "1024"},
		{"expr abs(-5)", "5"},
		{"expr int(3.9)", "3"},
		{"expr round(3.5)", "4"},
		{"expr sqrt(16)", "4.0"},
		{"expr min(3,1,2)", "1"},
		{"expr max(3,1,2)", "3"},
		{"expr 1<<4", "16"},
		{"expr 255>>4", "15"},
		{"expr 12&10", "8"},
		{"expr 12|10", "14"},
		{"expr 12^10", "6"},
		{"expr ~0", "-1"},
	}
	for _, c := range cases {
		wantEval(t, in, c[0], c[1])
	}
	wantErr(t, in, "expr 1/0", "divide by zero")
	wantErr(t, in, "expr 1%0", "divide by zero")
}

func TestExprLogicAndComparison(t *testing.T) {
	in := New()
	cases := [][2]string{
		{"expr 1<2", "1"},
		{"expr 2<=2", "1"},
		{"expr 3>4", "0"},
		{"expr 1==1.0", "1"},
		{"expr 1!=2", "1"},
		{"expr 1&&0", "0"},
		{"expr 1||0", "1"},
		{"expr !1", "0"},
		{"expr !0", "1"},
		{"expr 1<2 ? 10 : 20", "10"},
		{"expr 1>2 ? 10 : 20", "20"},
		{`expr {"abc" == "abc"}`, "1"},
		{`expr {"abc" < "abd"}`, "1"},
		{`expr {"abc" eq "abc"}`, "1"},
		{`expr {"1" eq "1.0"}`, "0"},
		{`expr {"a" ne "b"}`, "1"},
	}
	for _, c := range cases {
		wantEval(t, in, c[0], c[1])
	}
}

func TestExprShortCircuit(t *testing.T) {
	in := New()
	// The right side would error if evaluated... but Tcl evaluates
	// operands eagerly within one expression string; short-circuit only
	// guards evaluation of [cmd] parts. Verify values, not side effects.
	wantEval(t, in, "expr {0 && [error never]}", "0")
	wantEval(t, in, "expr {1 || [error never]}", "1")
}

func TestExprVariablesAndCommands(t *testing.T) {
	in := New()
	evalOK(t, in, "set n 6")
	wantEval(t, in, "expr {$n * 7}", "42")
	wantEval(t, in, "expr {[llength {a b c}] + 1}", "4")
}

func TestListCommands(t *testing.T) {
	in := New()
	wantEval(t, in, "list a b c", "a b c")
	wantEval(t, in, "list {a b} c", "{a b} c")
	wantEval(t, in, "list", "")
	wantEval(t, in, "llength {a b c}", "3")
	wantEval(t, in, "llength {}", "0")
	wantEval(t, in, "llength {{a b} c}", "2")
	wantEval(t, in, "lindex {a b c} 1", "b")
	wantEval(t, in, "lindex {a b c} end", "c")
	wantEval(t, in, "lindex {a b c} end-1", "b")
	wantEval(t, in, "lindex {a b c} 99", "")
	wantEval(t, in, "lrange {a b c d e} 1 3", "b c d")
	wantEval(t, in, "lrange {a b c d e} 2 end", "c d e")
	wantEval(t, in, "linsert {a c} 1 b", "a b c")
	wantEval(t, in, "lreplace {a b c d} 1 2 X Y", "a X Y d")
	wantEval(t, in, "lreplace {a b c} 1 1", "a c")
	wantEval(t, in, "lsearch {a b c} b", "1")
	wantEval(t, in, "lsearch {a b c} z", "-1")
	wantEval(t, in, "lsearch -exact {a* b c} a*", "0")
	wantEval(t, in, "lsort {c a b}", "a b c")
	wantEval(t, in, "lsort -integer {10 2 33}", "2 10 33")
	wantEval(t, in, "lsort -decreasing {a c b}", "c b a")
	wantEval(t, in, "lsort -dictionary {x10 x2 x1}", "x1 x2 x10")
	wantEval(t, in, "lreverse {1 2 3}", "3 2 1")
	wantEval(t, in, "concat {a b} {c d}", "a b c d")
	wantEval(t, in, "lappend L x; lappend L {y z}; set L", "x {y z}")
}

func TestListQuotingRoundTrip(t *testing.T) {
	in := New()
	wantEval(t, in, "lindex [list {a b} c] 0", "a b")
	wantEval(t, in, `lindex [list "has space" plain] 0`, "has space")
	wantEval(t, in, "llength [list {} {} {}]", "3")
	wantEval(t, in, "lindex [list {}] 0", "")
}

// TestListQuotingTcl86 checks list's quoting against tclsh 8.6's
// output for each row, and that ParseList gives the elements back: a
// leading '#' is braced only in the first element, and a word whose
// inner braces balance stays bare.
func TestListQuotingTcl86(t *testing.T) {
	in := New()
	for _, c := range []struct {
		src  string
		want string
		elem []string
	}{
		{"list # a", "{#} a", []string{"#", "a"}},
		{"list {#a} b", "{#a} b", []string{"#a", "b"}},
		{"list a #", "a #", []string{"a", "#"}},
		{"list {a{b}c}", "a{b}c", []string{"a{b}c"}},
		{"list {a{b} c}", "{a{b} c}", []string{"a{b} c"}},
		{"list {{a}b}", "{{a}b}", []string{"{a}b"}},
		{`list "a\{b"`, `a\{b`, []string{"a{b"}},
		{`list "#\{" x`, `\#\{ x`, []string{"#{", "x"}},
		{`list a {#a"b}`, `a #a\"b`, []string{"a", `#a"b`}},
		{"set l {}; lappend l #x #y", "{#x} #y", []string{"#x", "#y"}},
	} {
		got := evalOK(t, in, c.src)
		if got != c.want {
			t.Errorf("Eval(%q) = %q, want %q", c.src, got, c.want)
		}
		elems, err := ParseList(got)
		if err != nil || !slices.Equal(elems, c.elem) {
			t.Errorf("ParseList(%q) = %q, %v; want %q", got, elems, err, c.elem)
		}
	}
}

func TestStringCommands(t *testing.T) {
	in := New()
	wantEval(t, in, "string length hello", "5")
	wantEval(t, in, "string toupper abc", "ABC")
	wantEval(t, in, "string tolower ABC", "abc")
	wantEval(t, in, "string index hello 1", "e")
	wantEval(t, in, "string index hello end", "o")
	wantEval(t, in, "string range hello 1 3", "ell")
	wantEval(t, in, "string range hello 2 end", "llo")
	wantEval(t, in, "string compare a b", "-1")
	wantEval(t, in, "string compare b b", "0")
	wantEval(t, in, "string match {*.c} foo.c", "1")
	wantEval(t, in, "string match {a?c} abc", "1")
	wantEval(t, in, "string match {[a-c]x} bx", "1")
	wantEval(t, in, "string match {[a-c]x} dx", "0")
	wantEval(t, in, "string first ll hello", "2")
	wantEval(t, in, "string last l hello", "3")
	wantEval(t, in, "string trim {  hi  }", "hi")
	wantEval(t, in, "string trimleft xxhixx x", "hixx")
	wantEval(t, in, "string repeat ab 3", "ababab")
}

func TestFormat(t *testing.T) {
	in := New()
	wantEval(t, in, "format %d 42", "42")
	wantEval(t, in, "format %5d 42", "   42")
	wantEval(t, in, "format %-5d| 42", "42   |")
	wantEval(t, in, "format %05d 42", "00042")
	wantEval(t, in, "format %x 255", "ff")
	wantEval(t, in, "format %o 8", "10")
	wantEval(t, in, "format %c 65", "A")
	wantEval(t, in, "format %.2f 3.14159", "3.14")
	wantEval(t, in, "format %e 12345.678 ", "1.234568e+04")
	wantEval(t, in, "format %s%s a b", "ab")
	wantEval(t, in, "format %% ", "%")
	wantEval(t, in, "format %*d 6 42", "    42")
	wantErr(t, in, "format %d notanumber", "expected integer")
	wantErr(t, in, "format %d", "not enough arguments")
}

func TestScan(t *testing.T) {
	in := New()
	wantEval(t, in, "scan {42 abc} {%d %s} n s", "2")
	wantEval(t, in, "set n", "42")
	wantEval(t, in, "set s", "abc")
	wantEval(t, in, "scan {3.5} {%f} f", "1")
	wantEval(t, in, "set f", "3.5")
}

func TestRegexpRegsub(t *testing.T) {
	in := New()
	wantEval(t, in, "regexp {a(b+)c} xabbbcy whole sub", "1")
	wantEval(t, in, "set whole", "abbbc")
	wantEval(t, in, "set sub", "bbb")
	wantEval(t, in, "regexp {zzz} abc", "0")
	wantEval(t, in, "regexp -nocase {ABC} xabcx", "1")
	wantEval(t, in, "regsub {b+} abbbc X out", "1")
	wantEval(t, in, "set out", "aXc")
	wantEval(t, in, "regsub -all {o} foo 0 out2", "2")
	wantEval(t, in, "set out2", "f00")
	wantEval(t, in, "regsub {(a)(b)} ab {\\2\\1} sw", "1")
	wantEval(t, in, "set sw", "ba")
	wantEval(t, in, "regsub {x} aXa {&&} keep; set keep", "aXa")
}

func TestSplitJoin(t *testing.T) {
	in := New()
	wantEval(t, in, "split a/b/c /", "a b c")
	wantEval(t, in, "split {a b c}", "a b c")
	wantEval(t, in, "split a,,b ,", "a {} b")
	wantEval(t, in, "join {a b c} -", "a-b-c")
	wantEval(t, in, "join {a b c}", "a b c")
	wantEval(t, in, "split abc {}", "a b c")
}

func TestSubstCommand(t *testing.T) {
	in := New()
	evalOK(t, in, "set v 7")
	wantEval(t, in, `subst {v is $v and sum is [expr 1+1]}`, "v is 7 and sum is 2")
}

func TestEchoOutput(t *testing.T) {
	in := New()
	var out strings.Builder
	in.Stdout = collect(&out)
	evalOK(t, in, "echo hello world")
	if got := out.String(); got != "hello world\n" {
		t.Errorf("echo output = %q", got)
	}
	out.Reset()
	evalOK(t, in, "puts one; puts two")
	if got := out.String(); got != "one\ntwo\n" {
		t.Errorf("puts output = %q", got)
	}
}

func TestExitCode(t *testing.T) {
	in := New()
	_, err := in.Eval("exit 3")
	n, ok := IsExit(err)
	if !ok || n != 3 {
		t.Fatalf("exit 3: got (%d,%v), err=%v", n, ok, err)
	}
}

func TestExitValidatesStatus(t *testing.T) {
	in := New()
	// A non-numeric status is a Tcl error, not a status-0 exit.
	wantErr(t, in, "exit foo", "expected integer")
	// Plain exit defaults to status 0.
	_, err := in.Eval("exit")
	if n, ok := IsExit(err); !ok || n != 0 {
		t.Fatalf("exit: got (%d,%v), err=%v", n, ok, err)
	}
	// IsExit never reports exit for ordinary errors.
	_, err = in.Eval("error boom")
	if _, ok := IsExit(err); ok {
		t.Fatal("IsExit reported an ordinary error as exit")
	}
	if _, ok := IsExit(nil); ok {
		t.Fatal("IsExit reported nil as exit")
	}
}

func TestUnknownHandler(t *testing.T) {
	in := New()
	in.Unknown = func(in *Interp, argv []string) (string, error) {
		return "unknown:" + argv[0], nil
	}
	wantEval(t, in, "definitelyNotACommand a b", "unknown:definitelyNotACommand")
}

func TestRecursionLimit(t *testing.T) {
	in := New()
	evalOK(t, in, "proc inf {} {inf}")
	wantErr(t, in, "inf", "too many nested calls")
}

func TestTimeCommand(t *testing.T) {
	in := New()
	res := evalOK(t, in, "time {set x 1} 10")
	if !strings.Contains(res, "microseconds per iteration") {
		t.Errorf("time result = %q", res)
	}
}

func TestNestedDataStructures(t *testing.T) {
	in := New()
	evalOK(t, in, "set tree {root {left {a b}} {right c}}")
	wantEval(t, in, "lindex $tree 0", "root")
	wantEval(t, in, "lindex [lindex $tree 1] 1", "a b")
}

// The paper's prime-factor demo logic, in pure Tcl, as an end-to-end
// interpreter exercise.
func TestPrimeFactorsInTcl(t *testing.T) {
	in := New()
	evalOK(t, in, `
		proc primefactors {n} {
			set result {}
			for {set d 2} {$d <= $n} {incr d} {
				while {[expr $n % $d] == 0} {
					lappend result $d
					set n [expr $n / $d]
				}
			}
			return $result
		}`)
	wantEval(t, in, "primefactors 60", "2 2 3 5")
	wantEval(t, in, "primefactors 97", "97")
	wantEval(t, in, "primefactors 1", "")
}

func TestWafeStyleDollarUsage(t *testing.T) {
	// The paper prints "$Resources" style variable references after
	// getResourceList; reproduce the list-in-variable pattern.
	in := New()
	var out strings.Builder
	in.Stdout = collect(&out)
	evalOK(t, in, "set Resources {destroyCallback x y width height}")
	wantEval(t, in, "llength $Resources", "5")
	evalOK(t, in, "echo Resources: $Resources")
	if got := out.String(); got != "Resources: destroyCallback x y width height\n" {
		t.Errorf("output = %q", got)
	}
}
