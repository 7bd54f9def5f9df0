package tcl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuiltinArityGolden pins the call shape of every builtin New
// registers: the metadata wafecheck reads and the result or error of a
// call with one argument too few, the minimum, the maximum (one more
// than the minimum when unbounded) and one argument too many. Usage is
// not recorded: the error text of each out-of-bounds call shows it.
//
// Argument i is the word "a<i>". Every call runs in a fresh
// interpreter, inside a temporary directory, so no call sees another's
// side effects and none touches a real file.
//
// Regenerate with WAFE_UPDATE_GOLDEN=1 go test -run TestBuiltinArityGolden.
func TestBuiltinArityGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata/builtins.golden")
	if err != nil {
		t.Fatal(err)
	}
	// cd, open and source act on the working directory; no test in
	// this package runs in parallel, so changing it is safe.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	probe := New()
	names := probe.CommandNames()
	var b strings.Builder
	for _, name := range names {
		meta, ok := probe.metas[name]
		if !ok {
			fmt.Fprintf(&b, "%s: no metadata\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s: %s\n", name, formatBuiltinMeta(meta))
		for _, n := range builtinProbeCounts(meta) {
			recordBuiltinCall(&b, name, n)
		}
	}
	fmt.Fprintf(&b, "total: %d commands\n", len(names))

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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("builtins.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("builtins.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// builtinProbeCounts lists the argument counts probed for a builtin.
func builtinProbeCounts(m CommandMeta) []int {
	var ns []int
	if m.MinArgs > 0 {
		ns = append(ns, m.MinArgs-1)
	}
	ns = append(ns, m.MinArgs)
	switch {
	case m.MaxArgs < 0:
		ns = append(ns, m.MinArgs+1)
	case m.MaxArgs > m.MinArgs:
		ns = append(ns, m.MaxArgs, m.MaxArgs+1)
	default:
		ns = append(ns, m.MaxArgs+1)
	}
	return ns
}

// recordBuiltinCall runs name with n placeholder arguments in a fresh
// interpreter and appends the outcome.
func recordBuiltinCall(b *strings.Builder, name string, n int) {
	argv := []string{name}
	for i := 1; i <= n; i++ {
		argv = append(argv, fmt.Sprintf("a%d", i))
	}
	in := New()
	in.Stdout = func(string) {}
	defer in.CloseAllChannels()
	res, err := in.EvalWords(argv)
	if err != nil {
		fmt.Fprintf(b, "  %s +%d: error %q\n", name, n, err.Error())
		return
	}
	if volatileBuiltin[name] {
		res = "<volatile>"
	}
	fmt.Fprintf(b, "  %s +%d: ok %q\n", name, n, res)
}

// volatileBuiltin names builtins whose successful result carries a
// process id, a timing or a directory, so only success is recorded.
var volatileBuiltin = map[string]bool{"pid": true, "time": true, "pwd": true}

func formatBuiltinMeta(m CommandMeta) string {
	s := fmt.Sprintf("args %d..%d", m.MinArgs, m.MaxArgs)
	for _, f := range []struct {
		name string
		list []string
	}{{"options", m.Options}, {"subcommands", m.Subcommands}} {
		if len(f.list) > 0 {
			s += fmt.Sprintf(" %s %v", f.name, f.list)
		}
	}
	for _, f := range []struct {
		name string
		list []int
	}{{"scripts", m.ScriptArgs}, {"exprs", m.ExprArgs}, {"vars", m.VarArgs}} {
		if len(f.list) > 0 {
			s += fmt.Sprintf(" %s %v", f.name, f.list)
		}
	}
	return s
}
