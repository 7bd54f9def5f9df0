package wafe

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/xaw"
	"wafe/internal/xt"
)

// The resource golden corpus pins the value every resource of every
// widget class starts with: for each class the SetBoth configuration
// registers, plus the four shells, an instance under each parent it
// accepts has every name getResourceList reports (constraint resources
// included) read back with gV. The same widgets are then destroyed,
// a mix of tight and loose mergeResources entries is entered, and
// widgets of the same names are created again, so a value remembered
// from the first creation can never stand in for an Xrm value in the
// second. The files under testdata/resources were captured while every
// widget creation still converted each resource from scratch.
//
// A missing golden file is written from the current tree and the test
// fails, so regenerating one is a deliberate delete-run-review cycle.

// resourceCorpusXrm are the mergeResources entries entered between the
// two creations: tight and loose bindings, by instance and by class,
// for class-chain and constraint resources of most value types.
var resourceCorpusXrm = []string{
	"*Label.background", "red",
	"*pf.f_label.borderWidth", "3",
	"*pb*foreground", "blue",
	"*Command.label", "fromXrm",
	"*pf*horizDistance", "9",
	"*pf.f_toggle.vertDistance", "11",
	"*Toggle.state", "true",
	"*justify", "left",
	"*Label.font", "9x15",
	"*Scrollbar.topOfThumb", "0.25",
	"*orientation", "horizontal",
	"*cursor", "hand2",
	"*TransientShell.title", "xrmTitle",
	"*menu*leftMargin", "12",
	"*Form.defaultDistance", "7",
	"*pb.b_command.translations", "<Btn1Down>: set()",
	"*XmLabel.labelString", "xrm label",
	"*BarGraph.barSpacing", "5",
	"*b_barGraph.showValues", "on",
}

// resourceCorpusParents returns the parents a class is created under:
// shells go under topLevel, menu entries under a SimpleMenu, and every
// other class under both a Form and a Box.
func resourceCorpusParents(c *xt.Class) []string {
	switch {
	case c.Shell:
		return []string{"topLevel"}
	case c.IsSubclassOf(xaw.SmeClass):
		return []string{"menu"}
	}
	return []string{"pf", "pb"}
}

// resourceCorpusInstance names the instance of the class created by
// cmd under parent.
func resourceCorpusInstance(cmd, parent string) string {
	prefix := map[string]string{"pf": "f_", "pb": "b_", "menu": "m_", "topLevel": "s_"}[parent]
	return prefix + cmd
}

// dumpResources reads every resource of the named widget back through
// getResourceList and gV, one quoted value per line.
func dumpResources(t *testing.T, w *core.Wafe, b *strings.Builder, name string) {
	t.Helper()
	count, err := w.Eval("getResourceList " + name + " corpusNames")
	if err != nil {
		t.Fatalf("getResourceList %s: %v", name, err)
	}
	list, err := w.Eval("set corpusNames")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "%s: %s resources\n", name, count)
	for _, res := range strings.Fields(list) {
		v, err := w.Eval("gV " + name + " " + res)
		if err != nil {
			fmt.Fprintf(b, "  %s error %q\n", res, err.Error())
			continue
		}
		fmt.Fprintf(b, "  %s = %s\n", res, strconv.Quote(v))
	}
}

// runResourceCorpus creates every class twice, with the Xrm merge in
// between, and returns the dump per class name.
func runResourceCorpus(t *testing.T) map[string]string {
	w := core.NewTest()
	w.Interp.Stdout = func(string) {}
	eval := func(script string) {
		t.Helper()
		if _, err := w.Eval(script); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
	}
	eval("form pf topLevel\nbox pb pf\nsimpleMenu menu topLevel")
	classes := w.WidgetSetClasses()
	out := make(map[string]*strings.Builder, len(classes))
	create := func(phase string) {
		for _, c := range classes {
			b := out[c.Name]
			if b == nil {
				b = &strings.Builder{}
				out[c.Name] = b
			}
			fmt.Fprintf(b, "== %s\n", phase)
			cmd := core.CreationCommandName(c.Name)
			for _, parent := range resourceCorpusParents(c) {
				name := resourceCorpusInstance(cmd, parent)
				if _, err := w.Eval(cmd + " " + name + " " + parent); err != nil {
					fmt.Fprintf(b, "%s: create error %q\n", name, err.Error())
					continue
				}
				dumpResources(t, w, b, name)
			}
		}
	}
	create("before mergeResources")
	for _, c := range classes {
		cmd := core.CreationCommandName(c.Name)
		for _, parent := range resourceCorpusParents(c) {
			if name := resourceCorpusInstance(cmd, parent); w.App.WidgetByName(name) != nil {
				eval("destroyWidget " + name)
			}
		}
	}
	var merge strings.Builder
	merge.WriteString("mergeResources")
	for _, s := range resourceCorpusXrm {
		merge.WriteString(" {" + s + "}")
	}
	eval(merge.String())
	create("after mergeResources")
	dumps := make(map[string]string, len(out))
	for name, b := range out {
		dumps[name] = b.String()
	}
	return dumps
}

func TestResourceGolden(t *testing.T) {
	got := runResourceCorpus(t)
	if again := runResourceCorpus(t); fmt.Sprint(again) != fmt.Sprint(got) {
		t.Fatalf("resource values are not deterministic across two runs")
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "resources", name+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got[name]), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("wrote missing golden %s; review it and run again", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got[name] != string(want) {
				t.Errorf("resource values drifted from %s:\n%s", path, firstDiff(string(want), got[name]))
			}
		})
	}
}
