package tcl

import "testing"

// TestExplainReasons pins the -why reason text of every rule the
// compiler records, one single-command script per rule.
func TestExplainReasons(t *testing.T) {
	cases := []struct{ src, want string }{
		{"$cmd a", "command name is not a single literal word; resolved through the command table at runtime"},
		{"puts hi", `no specialized opcode for "puts"; dispatched through the (inline-cached) command table`},
		{"set a", "specialized form is `set NAME value`; other arities keep the classic path"},
		{"set $n 1", "variable name is not a literal word"},
		{"set arr(x) 1", "array references keep the classic set path and its error surface"},
		{"incr", "specialized form is `incr NAME ?delta?`"},
		{"incr $n", "variable name is not a literal word"},
		{"incr arr(x)", "array references keep the classic incr path"},
		{"incr a $d", "delta is not a literal word"},
		{"incr a 0x7fffffffff", `delta "0x7fffffffff" is not a literal 32-bit integer; the classic path produces the error text`},
		{"expr {1 +}", "expression does not compile statically (premature end of expression); generic dispatch raises it when the command runs"},
		{`expr $a + "2"`, "operand word 3 is braced or quoted; reconstruction could change the expression's shape"},
		{`expr $x+"1`, `literal "+\"1" contains characters that are unsafe to splice into reconstructed expression source`},
		{"expr $a + $b(1)", "array reference $b(...) cannot be a template slot"},
		{"expr ${a}bc", "$a abuts more name characters; reconstruction would read a different variable"},
		{"expr $a + [foo]", "command substitution in an operand must not run twice (once per template evaluation and once on the bail path)"},
		{"expr", "reconstructed expression does not compile statically (premature end of expression)"},
		{"expr $a$b", `reconstructed expression does not compile statically (syntax error in expression "$a$b")`},
		{"while", "specialized form is `while {cond} {body}`"},
		{`while "$i < 2" {incr i}`, "condition is not a literal word (brace it so the loop re-tests it each iteration and the VM can pre-compile it)"},
		{"while {$i < 2} $body", "body is not a literal word"},
		{"while {$i <} {incr i}", "condition does not compile as a typed expression (premature end of expression)"},
		{"for", "specialized form is `for {init} {cond} {next} {body}`"},
		{"for {set i 0} $c {incr i} {}", "argument 2 is not a literal word"},
		{"for {set i 0} {$i < 2} {incr i} $b", "argument 4 is not a literal word"},
		{"for {set i 0} {$i <} {incr i} {}", "condition does not compile as a typed expression (premature end of expression)"},
		{"for {set i 0} {$i < 2} {incr i} {}", ""},
	}
	for _, c := range cases {
		ex := ExplainScript(compileScript(c.src))
		if len(ex) != 1 {
			t.Fatalf("%q: %d explanations", c.src, len(ex))
		}
		if ex[0].Reason != c.want || ex[0].Specialized != (c.want == "") {
			t.Errorf("%q: specialized %v, reason %q\nwant reason %q", c.src, ex[0].Specialized, ex[0].Reason, c.want)
		}
	}

	// After a specialized builtin is rebound, nothing specializes.
	in := New()
	in.RegisterCommand("incr", func(*Interp, []string) (string, error) { return "", nil })
	p := in.compileProgram(compileScript("set a 1"))
	want := "set, incr, expr, while or for was rebound before the script compiled; every command is dispatched through the command table"
	if got := p.cmds[0].reason.text(p.cmds[0].src.words); got != want {
		t.Errorf("rebound: %q", got)
	}
}
