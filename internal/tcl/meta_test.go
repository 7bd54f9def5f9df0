package tcl

import (
	"strings"
	"testing"
)

func TestLineCol(t *testing.T) {
	src := "abc\ndef\nghi"
	cases := []struct{ off, line, col int }{
		{0, 1, 1}, {2, 1, 3}, {4, 2, 1}, {8, 3, 1}, {10, 3, 3},
	}
	for _, c := range cases {
		if l, col := LineCol(src, c.off); l != c.line || col != c.col {
			t.Errorf("LineCol(%d) = %d:%d, want %d:%d", c.off, l, col, c.line, c.col)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	s, err := Compile("set ok 1\necho {unbalanced")
	if err == nil || !strings.Contains(err.Error(), "line 2, column 6") {
		t.Errorf("Compile error = %v, want positioned parse error", err)
	}
	msg, line, col, ok := s.ParseErrorInfo()
	if !ok {
		t.Fatal("expected a recorded parse error")
	}
	if !strings.Contains(msg, "missing close-brace") {
		t.Errorf("msg = %q", msg)
	}
	if line != 2 || col != 6 {
		t.Errorf("parse error at %d:%d, want 2:6", line, col)
	}

	// The runtime error message carries the position suffix.
	in := New()
	if _, err := in.Eval("echo {unbalanced"); err == nil || !strings.Contains(err.Error(), "line 1, column 6") {
		t.Errorf("Eval error = %v, want line/column suffix", err)
	}
}

func TestInspectCommands(t *testing.T) {
	src := `set greeting hello
echo "$greeting [string length $greeting]" {braced}`
	s, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	cmds := s.Commands()
	if len(cmds) != 2 {
		t.Fatalf("got %d commands, want 2", len(cmds))
	}
	if cmds[0].Pos != 0 || cmds[1].Pos != 19 {
		t.Errorf("command positions %d,%d, want 0,19", cmds[0].Pos, cmds[1].Pos)
	}
	w0 := cmds[0].Words[0]
	if lit, ok := w0.Literal(); !ok || lit != "set" || w0.Pos != 0 {
		t.Errorf("word0 = %+v", w0)
	}
	quoted := cmds[1].Words[1]
	if quoted.Form != '"' {
		t.Errorf("quoted word form = %q", quoted.Form)
	}
	var varPart, cmdPart bool
	for _, p := range quoted.Parts {
		switch p.Kind {
		case PartVar:
			if p.Text == "greeting" {
				varPart = true
			}
		case PartCommand:
			cmdPart = true
			if p.Script == nil || len(p.Script.Commands()) != 1 {
				t.Error("nested command script not compiled")
			}
		}
	}
	if !varPart || !cmdPart {
		t.Errorf("quoted word parts missing var/command: %+v", quoted.Parts)
	}
	braced := cmds[1].Words[2]
	if braced.Form != '{' {
		t.Errorf("braced word form = %q", braced.Form)
	}
	if lit, ok := braced.Literal(); !ok || lit != "braced" {
		t.Errorf("braced literal = %q, %v", lit, ok)
	}
}

func TestCommandMetaRegistry(t *testing.T) {
	in := New()
	if _, ok := in.metas["set"]; !ok {
		t.Error("builtin set has no metadata")
	}
	metas := in.CommandMetas()
	if len(metas) == 0 {
		t.Fatal("no metadata registered")
	}
	for i := 1; i < len(metas); i++ {
		if metas[i-1].Name >= metas[i].Name {
			t.Fatalf("CommandMetas not sorted: %q >= %q", metas[i-1].Name, metas[i].Name)
		}
	}

	// Usage-bearing metadata enforces arity centrally.
	in.RegisterCommand("pair", func(_ *Interp, argv []string) (string, error) {
		return argv[1] + ":" + argv[2], nil
	})
	in.SetCommandMeta(CommandMeta{
		Name: "pair", MinArgs: 2, MaxArgs: 2,
		Usage: "pair a b",
	})
	if out, err := in.Eval("pair x y"); err != nil || out != "x:y" {
		t.Errorf("pair x y = %q, %v", out, err)
	}
	_, err := in.Eval("pair x")
	if err == nil || !strings.Contains(err.Error(), `wrong # args: should be "pair a b"`) {
		t.Errorf("central arity error = %v", err)
	}
}

func TestCheckExpr(t *testing.T) {
	if err := CheckExpr("1 + 2 * (3 - 4)"); err != nil {
		t.Errorf("valid expr rejected: %v", err)
	}
	// Barewords are accepted leniently: at eval time they may be
	// produced by substitutions the static checker cannot see.
	if err := CheckExpr(`red == "red"`); err != nil {
		t.Errorf("bareword operand rejected: %v", err)
	}
	err := CheckExpr("1 +")
	if err == nil {
		t.Fatal("incomplete expr accepted")
	}
	if _, ok := err.(*ParseError); !ok {
		t.Errorf("error type %T, want *ParseError", err)
	}
	if err := CheckExpr("1 + 2 extra"); err == nil {
		t.Error("trailing junk accepted")
	}
}

func TestBuiltinArityMessagesUnchanged(t *testing.T) {
	// The builtin table's usage texts give the builtins their
	// historical messages.
	in := New()
	_, err := in.Eval("incr")
	if err == nil || !strings.Contains(err.Error(), "wrong # args") {
		t.Errorf("incr arity error = %v", err)
	}
}
