package tcl

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The expression error corpus pins what every expression entry point
// observes for a source with a syntax error: the message, the side
// effects that ran before it (the log of the t command), errorInfo
// at script level, and CheckExpr's message and offset. Each bad
// operand sits at the top level, in a binary right operand, under a
// skip (a decided && or ||, an untaken ternary branch), in both
// ternary branches, in a function argument and inside parentheses,
// preceded by a side effect [t 1] and by a runtime error 1/0.
// testdata/expr_errors.golden was captured while a second,
// evaluate-as-you-parse parser still handled every source the
// expression compiler rejected.
//
// A missing golden file is written from the current tree and the test
// fails, so regenerating it is a deliberate delete-run-review cycle.

// exprErrorFragments are bad operands, at least one per message the
// expression parser raises. An atEnd fragment must end the source: the
// end of input is part of its error.
var exprErrorFragments = []struct {
	src   string
	atEnd bool
}{
	{"-", true},                        // premature end of expression
	{"(1 2)", false},                   // missing close parenthesis
	{"(2 ? 3)", false},                 // missing : in ternary expression
	{"2 3", false},                     // trailing junk, or its enclosing construct's message
	{"@", false},                       // syntax error in expression near
	{"bogus", false},                   // unknown function or bareword
	{"nosuch(1)", false},               // unknown math function, raised at run time
	{"sin(1", true},                    // missing ) in function call
	{"sin(1 2)", false},                // syntax error in function arguments
	{"1..2", false},                    // bad number
	{".", false},                       // bad number
	{"0x", false},                      // bad hex number
	{"99999999999999999999", false},    // integer value too large to represent
	{"0x1ffffffffffffffff", false},     // the same, in hex
	{"07777777777777777777777", false}, // the same, in octal
	{"${v", true},                      // missing close-brace for variable name
	{"$a(1", true},                     // missing ) in an array index
	{"[t 9", true},                     // missing close-bracket
	{`"abc`, true},                     // missing closing quote
	{`"a${v`, true},                    // a variable error inside a quoted word
	{`"[t 9`, true},                    // a command error inside a quoted word
	{"{abc", true},                     // missing close-brace
}

// exprErrorContexts place a fragment <E> after a prelude <P>, which is
// [t 1] and then 1/0; contexts without <P> run once. The last two
// raise a non-boolean condition before the fragment is reached.
var exprErrorContexts = []string{
	"<E>",
	"<P> + <E>",
	"[t 0] && <P> + <E>",
	"[t 1] || <P> + <E>",
	"[t 1] ? <P> + <E> : [t 2]",
	"[t 0] ? <P> + <E> : [t 2]",
	"[t 0] ? [t 2] : <P> + <E>",
	"[t 1] ? [t 2] : <P> + <E>",
	"max(<P>, <E>)",
	"(<P> + <E>)",
	"-(<P> + <E>)",
	"{x} ? <E> : 1",
	"{x} && <E>",
}

// exprErrorCorpus returns every context filled with every fragment.
func exprErrorCorpus() []string {
	var srcs []string
	for _, frag := range exprErrorFragments {
		for _, ctx := range exprErrorContexts {
			if frag.atEnd {
				ctx = ctx[:strings.Index(ctx, "<E>")+len("<E>")]
			}
			ctx = strings.ReplaceAll(ctx, "<E>", frag.src)
			if !strings.Contains(ctx, "<P>") {
				srcs = append(srcs, ctx)
				continue
			}
			for _, pre := range []string{"[t 1]", "1/0"} {
				srcs = append(srcs, strings.ReplaceAll(ctx, "<P>", pre))
			}
		}
	}
	return srcs
}

// exprLogInterp returns a fresh interpreter with t, a command that
// logs its arguments and returns the first, and the log.
func exprLogInterp() (*Interp, *[]string) {
	in := New()
	log := &[]string{}
	in.RegisterCommand("t", func(_ *Interp, argv []string) (string, error) {
		*log = append(*log, strings.Join(argv[1:], " "))
		if len(argv) > 1 {
			return argv[1], nil
		}
		return "", nil
	})
	return in, log
}

// exprErrorRecord renders what ExprEval, expr inside a proc, if
// (ExprBool) and CheckExpr observe for src, each on a fresh
// interpreter.
func exprErrorRecord(t *testing.T, src string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %q\n", src)

	in, log := exprLogInterp()
	if res, err := in.ExprEval(src); err != nil {
		fmt.Fprintf(&b, "eval  error %q log %q\n", err.Error(), *log)
	} else {
		fmt.Fprintf(&b, "eval  ok %q log %q\n", res, *log)
	}

	// A source with unbalanced braces cannot be braced; it reaches the
	// command through a variable instead.
	expr, cond := "expr {"+src+"}", "{"+src+"}"
	if !bracesBalance(src) {
		expr, cond = "global src; expr $src", "$src"
	}
	for _, form := range []struct{ name, setup, script string }{
		{"proc", "proc p {} {" + expr + "}", "p"},
		{"if", "", "if " + cond + " {t then} else {t else}"},
	} {
		in, log := exprLogInterp()
		if err := in.SetVar("src", src); err != nil {
			t.Fatal(err)
		}
		if _, err := in.Eval(form.setup); err != nil {
			t.Fatal(err)
		}
		code, err := in.Eval("catch {" + form.script + "} msg")
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := in.GetVar("msg")
		info := ""
		if code == "1" {
			info, _ = in.GetGlobalVar("errorInfo")
		}
		fmt.Fprintf(&b, "%-5s %s %q log %q info %q\n", form.name, code, msg, *log, info)
	}

	if err := CheckExpr(src); err != nil {
		pe := err.(*ParseError)
		fmt.Fprintf(&b, "check %q @%d\n", pe.Msg, pe.Off)
	} else {
		b.WriteString("check ok\n")
	}
	return b.String()
}

func bracesBalance(s string) bool {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			if depth--; depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}

func TestExprErrorGolden(t *testing.T) {
	var b strings.Builder
	for _, src := range exprErrorCorpus() {
		b.WriteString(exprErrorRecord(t, src))
	}
	checkGolden(t, filepath.Join("testdata", "expr_errors.golden"), b.String())
}

// demoExprSources returns the braced expr, if and while conditions of
// the shipped demos.
func demoExprSources(tb testing.TB) []string {
	paths, err := filepath.Glob("../../demos/*.wafe")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no demos found: %v", err)
	}
	re := regexp.MustCompile(`\b(expr|if|while) \{`)
	var srcs []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		text := string(data)
		for _, loc := range re.FindAllStringIndex(text, -1) {
			depth, end := 1, loc[1]
			for ; end < len(text) && depth > 0; end++ {
				switch text[end] {
				case '{':
					depth++
				case '}':
					depth--
				}
			}
			if depth == 0 {
				srcs = append(srcs, text[loc[1]:end-1])
			}
		}
	}
	return srcs
}

// TestExprIntPower checks that integer ** agrees with repeated
// multiplication (mod 2^64) and returns promptly for huge exponents,
// both evaluated and folded at compile time.
func TestExprIntPower(t *testing.T) {
	for _, base := range []int64{0, 1, -1, 2, 3, -7, 1 << 40, -9223372036854775808} {
		want := int64(1)
		for exp := int64(0); exp <= 64; exp++ {
			v, err := applyBinary("**", intVal(base), intVal(exp))
			if err != nil || v.kind != vInt || v.i != want {
				t.Errorf("%d ** %d = %v, %v; want %d", base, exp, v, err, want)
			}
			want *= base
		}
	}
	in := New()
	for _, script := range []string{"set n 4000000000; expr {2 ** $n}", "expr {2 ** 40000000000}"} {
		if got, err := in.Eval(script); err != nil || got != "0" {
			t.Errorf("%s = %q, %v; want 0", script, got, err)
		}
	}
	if err := CheckExpr("2 ** 40000000000"); err != nil {
		t.Errorf("CheckExpr: %v", err)
	}
}

// TestExprLoneDollar checks that a $ not followed by a name is a
// literal operand, not a read of a variable named "$", and that a
// skipped operand still yields 0.
func TestExprLoneDollar(t *testing.T) {
	in := New()
	if _, err := in.Eval("set {$} 7"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ script, want string }{
		{"catch {expr {$ + 1}} msg; set msg", `can't use non-numeric string "$" as operand of "+"`},
		{`expr {$ eq "$"}`, "1"},
		{"expr {0 && -$}", "0"},
	} {
		if got, err := in.Eval(c.script); err != nil || got != c.want {
			t.Errorf("%s = %q, %v; want %q", c.script, got, err, c.want)
		}
	}
	if got, err := in.ExprEval(`$ eq "$"`); err != nil || got != "1" {
		t.Errorf(`ExprEval($ eq "$") = %q, %v; want 1`, got, err)
	}
}

// fuzzExprInterp returns a logging interpreter whose only commands are
// t, error and expr, so that a fuzzed [...] cannot loop, exit, run a
// program or touch a file.
func fuzzExprInterp() (*Interp, *[]string) {
	in, log := exprLogInterp()
	for _, name := range in.CommandNames() {
		if name != "t" && name != "error" && name != "expr" && name != "rename" {
			if _, err := in.Eval("rename " + name + " {}"); err != nil {
				panic(err)
			}
		}
	}
	if _, err := in.Eval("rename rename {}"); err != nil {
		panic(err)
	}
	return in, log
}

// FuzzExpr evaluates arbitrary expression sources. None may panic; an
// interpreter with the expression and script caches and one without
// must agree on every evaluation's result, error and t log (both
// evaluate twice, so the cached one runs its cached tree); and a
// source that evaluates without error must pass CheckExpr.
func FuzzExpr(f *testing.F) {
	for _, src := range exprErrorCorpus() {
		f.Add(src)
	}
	for _, src := range demoExprSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		cached, clog := fuzzExprInterp()
		uncached, ulog := fuzzExprInterp()
		uncached.SetScriptCacheSize(0)
		uncached.SetExprCacheSize(0)
		for run := 1; run <= 2; run++ {
			*clog, *ulog = nil, nil
			cres, cerr := cached.ExprEval(src)
			ures, uerr := uncached.ExprEval(src)
			if cres != ures || fmt.Sprint(cerr) != fmt.Sprint(uerr) || !slices.Equal(*clog, *ulog) {
				t.Fatalf("run %d of %q: cached %q, %v, log %q; uncached %q, %v, log %q",
					run, src, cres, cerr, *clog, ures, uerr, *ulog)
			}
			if cerr == nil {
				if err := CheckExpr(src); err != nil {
					t.Fatalf("%q evaluates to %q, but CheckExpr rejects it: %v", src, cres, err)
				}
			}
		}
	})
}
