package core

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"wafe/internal/spec"
	"wafe/internal/tcl"
)

func parseSpec(t *testing.T) []spec.Entry {
	t.Helper()
	data, err := os.ReadFile("../../specs/wafe.spec")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := spec.Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestSpecRuntimeConsistency verifies the generator's headline benefit:
// "consistency in documentation and interface code". Every command the
// specification declares must be registered in the running interpreter
// under exactly the generated name, and every command core registers
// beyond the Tcl builtins, and every widget class, must appear in the
// spec.
func TestSpecRuntimeConsistency(t *testing.T) {
	entries := parseSpec(t)
	w := NewTest() // SetBoth: Athena + Motif + Plotter
	declared := map[string]bool{}
	declaredClass := map[string]bool{}
	for _, e := range entries {
		for _, cmd := range append([]string{e.CommandName()}, e.Aliases...) {
			declared[cmd] = true
			if _, ok := w.Interp.Command(cmd); !ok {
				t.Errorf("spec declares %q (%s) but the runtime does not register it", cmd, e.Kind)
			}
		}
		if e.Kind == "widgetClass" {
			declaredClass[e.ClassName] = true
		}
	}
	builtins := map[string]bool{}
	for _, name := range tcl.New().CommandNames() {
		builtins[name] = true
	}
	for _, name := range w.Interp.CommandNames() {
		if !builtins[name] && !declared[name] {
			t.Errorf("runtime registers command %q missing from the spec", name)
		}
	}
	for _, c := range w.WidgetSetClasses() {
		if !declaredClass[c.Name] {
			t.Errorf("runtime registers widget class %q missing from the spec", c.Name)
		}
	}
}

// TestGeneratedFilesFresh regenerates the command table and the short
// reference from the spec and requires the checked-in files to match
// byte for byte (go generate ./internal/core refreshes them).
func TestGeneratedFilesFresh(t *testing.T) {
	entries := parseSpec(t)
	src, _, err := spec.GenerateGo(entries)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"commands_gen.go":          src,
		"../../docs/reference.txt": spec.GenerateReference(entries),
		"../../docs/reference.tex": spec.GenerateTeX(entries),
	} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is stale: run go generate ./internal/core", path)
		}
	}
}

// TestGeneratedBindingTableCoversSpec checks the generated table row by
// row against the spec: one row per function entry and alias, carrying
// the entry's bounds and usage text, registered under its name with
// exactly the row's metadata.
func TestGeneratedBindingTableCoversSpec(t *testing.T) {
	rows := map[string]tcl.CommandMeta{}
	for _, c := range commandTable {
		if c.run == nil {
			t.Errorf("row %q has no implementation", c.meta.Name)
		}
		rows[c.meta.Name] = c.meta
	}
	w := NewTest()
	metas := commandMetas(w)
	want := 0
	for _, e := range parseSpec(t) {
		if e.Kind != "function" {
			continue
		}
		want += 1 + len(e.Aliases)
		min, max := e.Bounds()
		for _, name := range append([]string{e.CommandName()}, e.Aliases...) {
			m, ok := rows[name]
			if !ok {
				t.Errorf("spec function %s (%s) has no table row", name, e.CName)
				continue
			}
			if m.MinArgs != min || m.MaxArgs != max || (m.Usage != e.Usage()) != e.Unchecked {
				t.Errorf("row %s = %+v, spec says %d..%d %q unchecked=%v", name, m, min, max, e.Usage(), e.Unchecked)
			}
			if got := metas[name]; !reflect.DeepEqual(got, m) {
				t.Errorf("runtime metadata for %s = %+v, want the row's %+v", name, got, m)
			}
		}
	}
	if len(rows) != want || len(rows) < 75 {
		t.Errorf("table has %d rows, spec declares %d commands", len(rows), want)
	}
}

// TestGeneratedBindingsEndToEnd drives the paper's two specification
// examples through the registered commands: creation through
// mCascadeButton (with -unmanaged), mCascadeButtonHighlight with good
// and bad argument counts, and destroyWidget.
func TestGeneratedBindingsEndToEnd(t *testing.T) {
	w := NewTest()
	eval(t, w, "mCascadeButton mc topLevel")
	if w.App.WidgetByName("mc") == nil {
		t.Fatal("mCascadeButton created no widget")
	}
	eval(t, w, "mCascadeButtonHighlight mc true")
	evalErr(t, w, "mCascadeButtonHighlight mc", `wrong # args: should be "mCascadeButtonHighlight widget boolean"`)
	evalErr(t, w, "mCascadeButtonHighlight mc true extra", `wrong # args: should be "mCascadeButtonHighlight widget boolean"`)
	eval(t, w, "mCascadeButton hid topLevel -unmanaged")
	if w.App.WidgetByName("hid").IsManaged() {
		t.Error("-unmanaged created a managed widget")
	}
	eval(t, w, "destroyWidget hid")
	if w.App.WidgetByName("hid") != nil {
		t.Error("widget survived destroyWidget")
	}
}

// TestSpecBoundsAcceptValidCalls covers calls whose argument counts an
// earlier spec got wrong: each must get past the arity check.
func TestSpecBoundsAcceptValidCalls(t *testing.T) {
	w := NewTest()
	eval(t, w, "form f topLevel; list l f; transientShell sh f; realize")
	for _, script := range []string{
		"popup sh",
		"getSelectionValue f PRIMARY STRING",
		"listChange l {a b} true",
		"getValues f arr width",
	} {
		if _, err := w.Eval(script); err != nil && strings.Contains(err.Error(), "wrong # args") {
			t.Errorf("%s: %v", script, err)
		}
	}
}
