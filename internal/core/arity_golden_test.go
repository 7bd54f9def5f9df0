package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wafe/internal/tcl"
)

// TestArityGolden pins the call shape of every command core registers:
// the fixed commands with their aliases and every creation command. For
// each command it records the metadata wafecheck reads and the result
// or error of a call with one argument too few, the minimum, one more
// than the minimum when unbounded (which reaches the parity checks),
// the maximum when bounded, and one argument too many. Each trace
// subcommand gets the same treatment. Usage is not recorded: the error
// text of each out-of-bounds call shows it.
//
// Argument i is the word "a<i>". Every call runs in a fresh instance,
// so no call sees another's side effects.
//
// Regenerate with WAFE_UPDATE_GOLDEN=1 go test -run TestArityGolden.
func TestArityGolden(t *testing.T) {
	golden, err := filepath.Abs("testdata/commands.golden")
	if err != nil {
		t.Fatal(err)
	}
	// metricsDump writes its argument as a file; no test in this
	// package runs in parallel, so changing directory is safe.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	probe := NewTest()
	defer probe.Close()
	builtins := map[string]bool{}
	for _, name := range tcl.New().CommandNames() {
		builtins[name] = true
	}
	var names []string
	for _, name := range probe.Interp.CommandNames() {
		if builtins[name] && probe.classes[name] == nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)

	metas := commandMetas(probe)
	var b strings.Builder
	for _, name := range names {
		meta, ok := metas[name]
		if !ok {
			fmt.Fprintf(&b, "%s: no metadata\n", name)
			continue
		}
		fmt.Fprintf(&b, "%s: %s\n", name, formatArityMeta(meta))
		for _, n := range arityProbeCounts(meta) {
			recordArityCall(&b, []string{name}, n)
		}
		for _, sub := range meta.Subcommands {
			for n := 0; n <= 2; n++ {
				recordArityCall(&b, []string{name, sub}, n)
			}
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
				t.Fatalf("commands.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("commands.golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// arityProbeCounts lists the argument counts probed for a command.
func arityProbeCounts(m tcl.CommandMeta) []int {
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

// recordArityCall runs prefix followed by n placeholder arguments
// in a fresh instance and appends the outcome.
func recordArityCall(b *strings.Builder, prefix []string, n int) {
	argv := append([]string(nil), prefix...)
	for i := 1; i <= n; i++ {
		argv = append(argv, fmt.Sprintf("a%d", len(prefix)-1+i))
	}
	w := NewTest()
	defer w.Close()
	res, err := w.Interp.EvalWords(argv)
	label := strings.Join(prefix, " ")
	if err != nil {
		fmt.Fprintf(b, "  %s +%d: error %q\n", label, n, err.Error())
		return
	}
	if volatileResult[prefix[0]] {
		res = "<volatile>"
	}
	fmt.Fprintf(b, "  %s +%d: ok %q\n", label, n, res)
}

// volatileResult names commands whose successful result carries
// timings or addresses, so only success is recorded.
var volatileResult = map[string]bool{"statistics": true, "metricsDump": true}

func formatArityMeta(m tcl.CommandMeta) string {
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
