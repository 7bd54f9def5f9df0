package core

import (
	"strings"
	"testing"

	"wafe/internal/tcl"
	"wafe/internal/xt"
)

// commandMetas indexes the command metadata of w's interpreter by name.
func commandMetas(w *Wafe) map[string]tcl.CommandMeta {
	metas := map[string]tcl.CommandMeta{}
	for _, m := range w.Interp.CommandMetas() {
		metas[m.Name] = m
	}
	return metas
}

// TestCreationCommandMeta asserts every widget-creation command has
// registered metadata and that the central arity enforcement produces
// the canonical wrong-#-args message.
func TestCreationCommandMeta(t *testing.T) {
	w := NewTest()
	metas := commandMetas(w)
	for name := range w.classes {
		if _, ok := metas[name]; !ok {
			t.Errorf("creation command %q has no metadata", name)
		}
	}
	_, err := w.Interp.Eval("command onlyName")
	if err == nil || !strings.Contains(err.Error(), `wrong # args: should be "command name father ?-unmanaged? ?resource value ...?"`) {
		t.Errorf("creation arity error = %v", err)
	}

	// The colliding "list" name must keep dispatching to the Tcl
	// builtin when the second argument is not a widget.
	if out, err := w.Interp.Eval("list a b c"); err != nil || out != "a b c" {
		t.Errorf("list builtin broken: %q, %v", out, err)
	}
}

// TestCreationClassesCopy asserts the accessor returns a copy, not
// the live table.
func TestCreationClassesCopy(t *testing.T) {
	w := NewTest()
	m := w.CreationClasses()
	if len(m) == 0 {
		t.Fatal("no creation classes")
	}
	m["command"] = nil
	if w.classes["command"] == nil {
		t.Error("mutating the copy changed the live table")
	}
}

// TestAllConstraints asserts constraint resources merge along the
// class chain and are memoized.
func TestAllConstraints(t *testing.T) {
	w := NewTest()
	form := w.classes["form"]
	if form == nil {
		t.Fatal("no form class")
	}
	cons := form.AllConstraints()
	var found bool
	for _, r := range cons {
		if r.Name == "fromVert" {
			found = true
		}
	}
	if !found {
		t.Errorf("form constraints missing fromVert: %v", cons)
	}
	if len(xt.ApplicationShellClass.AllConstraints()) != 0 {
		t.Error("shell unexpectedly declares constraints")
	}
}
