package tcl

import (
	"strings"
	"testing"
)

// --- parser edge cases -------------------------------------------------------

func TestBackslashNewlineContinuation(t *testing.T) {
	in := New()
	// Between bare words a backslash-newline is a word separator, so a
	// command continues on the next line.
	wantEval(t, in, "list a\\\nb", "a b")
	wantEval(t, in, "set x [list 1 \\\n 2 \\\n 3]", "1 2 3")
	wantEval(t, in, "expr 1 + \\\n 2", "3")
	// A bare word ends at the continuation; more words may follow it.
	wantEval(t, in, "list ab\\\ncd", "ab cd")
	// Inside double quotes the backslash-newline plus following blanks
	// collapses to a single space within the word.
	wantEval(t, in, "set x \"ab\\\n   cd\"", "ab cd")
	// Inside braces it stays verbatim (the body substitutes later).
	wantEval(t, in, "set b {ab\\\ncd}; string length $b", "6")
	// After a close-brace it terminates the word like whitespace.
	wantEval(t, in, "list {a}\\\n{b}", "a b")
}

func TestBracketInsideDoubleQuotes(t *testing.T) {
	in := New()
	wantEval(t, in, `set x "a[string length bcd]e"`, "a3e")
	// Nested quotes inside the bracketed command are independent of the
	// enclosing quoted word.
	wantEval(t, in, `set x "pre [string range "hello" 1 3] post"`, "pre ell post")
	// An escaped bracket is literal, not a command substitution.
	wantEval(t, in, `set x "\[string length bcd]"`, "[string length bcd]")
	// Brackets nest inside the substitution.
	wantEval(t, in, `set x "v=[string length [string range abcdef 0 2]]"`, "v=3")
	// A substitution ends where its script ends, so a ']' inside one of
	// its quoted or braced words is a character. The expected values
	// are what tclsh 8.6 prints for `puts [list "]"]`,
	// `puts [string length "a]b"]` and `puts [list {]}]`.
	wantEval(t, in, `set x [list "]"]`, `\]`)
	wantEval(t, in, `set x [string length "a]b"]`, "3")
	wantEval(t, in, `set x [list {]}]`, `\]`)
}

func TestArrayIndexSubstitution(t *testing.T) {
	in := New()
	evalOK(t, in, "set a(one1) first")
	evalOK(t, in, "set k one")
	// $var inside the index.
	wantEval(t, in, `set a(${k}1)`, "first")
	// [cmd] inside the index.
	wantEval(t, in, `set a([string range one1xx 0 3])`, "first")
	// Mixed $var and [cmd].
	wantEval(t, in, `set a($k[string index 123 0])`, "first")
	// The same forms during read-substitution in a quoted word.
	wantEval(t, in, `set r "got $a($k[string index 123 0])"`, "got first")
}

func TestUnterminatedConstructErrors(t *testing.T) {
	in := New()
	wantErr(t, in, "set x {abc", "missing close-brace")
	wantErr(t, in, "set x [string length abc", "missing close-bracket")
	wantErr(t, in, `set x "abc`, "missing closing quote")
	wantErr(t, in, "set x ${abc", "missing close-brace for variable name")
	wantErr(t, in, "set x {a}b", "extra characters after close-brace")
	wantErr(t, in, `set x "a"b`, "extra characters after close-quote")
}

func TestParseErrorAfterValidPrefix(t *testing.T) {
	// The commands before a malformed one still run — the compiled
	// pipeline replays the parse error only when evaluation reaches it,
	// exactly like the incremental parser.
	in := New()
	_, err := in.Eval("set ran yes\nset x {oops")
	if err == nil || !strings.Contains(err.Error(), "missing close-brace") {
		t.Fatalf("want missing close-brace error, got %v", err)
	}
	wantEval(t, in, "set ran", "yes")
}

// --- compiled scripts --------------------------------------------------------

func TestCompileAndEvalScript(t *testing.T) {
	s, err := Compile("set x 1; set y [expr $x+1]; list $x $y")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if s.parseErr != nil {
		t.Fatal("script should be complete")
	}
	in := New()
	for i := 0; i < 3; i++ {
		res, err := in.EvalScript(s)
		if err != nil || res != "1 2" {
			t.Fatalf("EvalScript pass %d = %q, %v", i, res, err)
		}
	}
	// The same Script is valid on another interpreter: command names
	// resolve at invocation time.
	in2 := New()
	if res, err := in2.EvalScript(s); err != nil || res != "1 2" {
		t.Fatalf("EvalScript on second interp = %q, %v", res, err)
	}
}

func TestCompileMalformedScript(t *testing.T) {
	s, err := Compile("set ran yes\nset x [oops")
	if err == nil || !strings.Contains(err.Error(), "missing close-bracket") {
		t.Fatalf("Compile error = %v, want missing close-bracket", err)
	}
	if s == nil || s.parseErr == nil {
		t.Fatal("malformed source must yield an incomplete, evaluable Script")
	}
	// The prefix still runs before the error is replayed.
	in := New()
	if _, err := in.EvalScript(s); err == nil || !strings.Contains(err.Error(), "missing close-bracket") {
		t.Fatalf("EvalScript error = %v", err)
	}
	wantEval(t, in, "set ran", "yes")
}

func TestScriptCacheInterning(t *testing.T) {
	in := New()
	in.SetScriptCacheSize(4)
	evalOK(t, in, "set x 1")
	if n := len(in.scriptCache.m); n != 0 {
		t.Fatalf("a source evaluated once was interned (%d entries)", n)
	}
	evalOK(t, in, "set x 1")
	if len(in.scriptCache.m) != 1 {
		t.Fatal("expected the script evaluated twice to be interned")
	}
	// The cache is LRU-bounded: distinct sources beyond the capacity
	// evict, they do not grow the cache.
	for _, src := range []string{"set a 1", "set b 2", "set c 3", "set d 4", "set e 5", "set f 6"} {
		evalOK(t, in, src)
		evalOK(t, in, src)
	}
	if n := len(in.scriptCache.m); n > 4 {
		t.Fatalf("cache grew to %d entries, capacity is 4", n)
	}
	// Size zero disables interning but evaluation still works.
	in.SetScriptCacheSize(0)
	wantEval(t, in, "set x 2", "2")
	if in.scriptCache != nil {
		t.Fatal("a zero size left a script cache")
	}
}

func TestProcRedefinitionUsesNewBody(t *testing.T) {
	// Proc bodies are compiled once per Proc value; redefining installs
	// a fresh Proc, so no stale compiled body can survive.
	in := New()
	evalOK(t, in, "proc f {} {return a}")
	wantEval(t, in, "f", "a")
	evalOK(t, in, "proc f {} {return b}")
	wantEval(t, in, "f", "b")
	// Renaming keeps the compiled body with the proc.
	evalOK(t, in, "rename f g")
	wantEval(t, in, "g", "b")
	evalOK(t, in, "proc f {} {return c}")
	wantEval(t, in, "f", "c")
	wantEval(t, in, "g", "b")
}

func TestCachedEvalPreservesTraceback(t *testing.T) {
	// errorInfo accumulates the same traceback whether the script comes
	// from the cache or compiles fresh.
	collect := func(in *Interp) string {
		if _, err := in.Eval("proc inner {} {error boom}\nproc outer {} {inner}"); err != nil {
			t.Fatalf("defining procs: %v", err)
		}
		if _, err := in.Eval("outer"); err == nil {
			t.Fatal("expected error from outer")
		}
		info, err := in.Eval("set errorInfo")
		if err != nil {
			t.Fatalf("reading errorInfo: %v", err)
		}
		return info
	}
	cached := New()
	uncached := New()
	uncached.SetScriptCacheSize(0)
	uncached.SetExprCacheSize(0)
	if a, b := collect(cached), collect(uncached); a != b {
		t.Errorf("tracebacks differ:\ncached:\n%s\nuncached:\n%s", a, b)
	}
}
