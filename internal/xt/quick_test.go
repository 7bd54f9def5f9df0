package xt

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// pathSpec is a random widget path for Xrm property tests.
type pathSpec struct {
	Names   []string
	Classes []string
}

var nameAlphabet = []string{"form", "box", "label1", "cmd", "quit", "menu", "text"}
var classAlphabet = []string{"Form", "Box", "Label", "Command", "MenuButton", "AsciiText"}

func (pathSpec) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(4)
	p := pathSpec{Names: make([]string, n), Classes: make([]string, n)}
	for i := 0; i < n; i++ {
		p.Names[i] = nameAlphabet[r.Intn(len(nameAlphabet))]
		p.Classes[i] = classAlphabet[r.Intn(len(classAlphabet))]
	}
	return reflect.ValueOf(p)
}

// Property: a fully-specified tight entry always matches its own path
// and wins over any wildcard entry.
func TestXrmExactAlwaysWinsProperty(t *testing.T) {
	f := func(p pathSpec) bool {
		db := NewXrm()
		names := append([]string{"app"}, p.Names...)
		classes := append([]string{"App"}, p.Classes...)
		spec := strings.Join(append(append([]string{}, names...), "res"), ".")
		if err := db.Enter(spec, "exact"); err != nil {
			t.Logf("Enter(%q): %v", spec, err)
			return false
		}
		if err := db.Enter("*res", "wild"); err != nil {
			return false
		}
		v, ok := db.Query(names, classes, "res", "Res")
		if !ok || v != "exact" {
			t.Logf("path %v: got %q/%v", names, v, ok)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the loose catch-all "*res" matches every path.
func TestXrmWildcardMatchesAllProperty(t *testing.T) {
	f := func(p pathSpec) bool {
		db := NewXrm()
		_ = db.Enter("*res", "wild")
		names := append([]string{"app"}, p.Names...)
		classes := append([]string{"App"}, p.Classes...)
		v, ok := db.Query(names, classes, "res", "Res")
		return ok && v == "wild"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: a class-targeted entry (*Class.res) beats the plain
// wildcard whenever the class occurs in the path.
func TestXrmClassBeatsWildcardProperty(t *testing.T) {
	f := func(p pathSpec, which uint8) bool {
		if len(p.Names) == 0 {
			return true
		}
		idx := int(which) % len(p.Classes)
		class := p.Classes[idx]
		db := NewXrm()
		_ = db.Enter("*res", "wild")
		_ = db.Enter("*"+class+"*res", "classy")
		names := append([]string{"app"}, p.Names...)
		classes := append([]string{"App"}, p.Classes...)
		v, ok := db.Query(names, classes, "res", "Res")
		if !ok {
			return false
		}
		return v == "classy"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: translation tables survive a parse → Source → parse cycle
// with identical matching behaviour on a probe event set.
func TestTranslationSourceRoundTripProperty(t *testing.T) {
	bindings := []string{
		"<Btn1Down>: set()",
		"<Btn3Up>: unset()",
		"Shift<Key>Return: act(a, b)",
		"<EnterWindow>: highlight()",
		"<Key>a: insert()",
		"Ctrl<Btn2Down>: menu(popup)",
		"<KeyPress>: exec(echo %k %a %s)",
	}
	f := func(mask uint8) bool {
		var chosen []string
		for i, b := range bindings {
			if mask&(1<<uint(i)) != 0 {
				chosen = append(chosen, b)
			}
		}
		if len(chosen) == 0 {
			return true
		}
		src := strings.Join(chosen, "\n")
		t1, err := ParseTranslations(src)
		if err != nil {
			t.Logf("parse %q: %v", src, err)
			return false
		}
		t2, err := ParseTranslations(t1.Source())
		if err != nil {
			t.Logf("reparse %q: %v", t1.Source(), err)
			return false
		}
		if t1.Len() != t2.Len() {
			return false
		}
		return t1.Source() == t2.Source()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

// Property: widget create/destroy sequences keep the registry exact and
// consistent.
func TestWidgetLifecycleCountProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		app := NewTestApp("wafe")
		top, err := app.CreateWidget("topLevel", ApplicationShellClass, nil, nil, false)
		if err != nil {
			return false
		}
		expected := 1 // topLevel
		seq := 0
		var live []string
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 {
				// destroy a random live widget
				name := live[int(op)%len(live)]
				w := app.WidgetByName(name)
				if w == nil {
					continue
				}
				w.Destroy()
				var next []string
				for _, n := range live {
					if app.WidgetByName(n) != nil {
						next = append(next, n)
					}
				}
				live = next
				expected = 1 + len(live)
				continue
			}
			seq++
			name := fmt.Sprintf("w%d", seq)
			if _, err := app.CreateWidget(name, testLabelClass, top, nil, true); err != nil {
				return false
			}
			live = append(live, name)
			expected++
		}
		if len(app.widgets) != expected {
			t.Logf("live = %d, expected %d", len(app.widgets), expected)
			return false
		}
		for _, n := range live {
			if app.WidgetByName(n) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Merge with MergeOverride is idempotent when merging a table
// into itself, and MergeReplace always yields the new table.
func TestTranslationMergeProperties(t *testing.T) {
	a, _ := ParseTranslations("<Btn1Down>: one()\n<EnterWindow>: enter()")
	b, _ := ParseTranslations("<Btn1Down>: two()\n<Key>x: kx()")
	self := a.Merge(a, MergeOverride)
	if self.Len() != a.Len() {
		t.Errorf("self-override changed length: %d vs %d", self.Len(), a.Len())
	}
	rep := a.Merge(b, MergeReplace)
	if rep.Source() != b.Source() {
		t.Error("replace did not yield the new table")
	}
	over := a.Merge(b, MergeOverride)
	aug := a.Merge(b, MergeAugment)
	// Both contain all non-conflicting bindings.
	if over.Len() != 3 || aug.Len() != 3 {
		t.Errorf("merge lengths: override=%d augment=%d, want 3", over.Len(), aug.Len())
	}
}
