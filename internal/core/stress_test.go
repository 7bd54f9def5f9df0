package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestStressWidgetChurn creates, reconfigures, exercises and destroys
// hundreds of widgets; live-widget accounting must stay exact and the
// display must stay consistent.
func TestStressWidgetChurn(t *testing.T) {
	w := NewTest()
	w.App.ErrorHandler = func(err error) { t.Errorf("dispatch error during churn: %v", err) }
	eval(t, w, "box arena topLevel")
	eval(t, w, "realize")
	rng := rand.New(rand.NewSource(42))
	classes := []string{"label", "command", "toggle", "asciiText", "barGraph"}
	var live []string
	for i := 0; i < 600; i++ {
		switch rng.Intn(4) {
		case 0, 1: // create
			name := fmt.Sprintf("s%d", i)
			class := classes[rng.Intn(len(classes))]
			if _, err := w.Eval(class + " " + name + " arena label x"); err != nil {
				// asciiText and barGraph have no label resource.
				if _, err2 := w.Eval(class + " " + name + " arena"); err2 != nil {
					t.Fatalf("create %s: %v / %v", class, err, err2)
				}
			}
			live = append(live, name)
		case 2: // reconfigure or poke
			if len(live) == 0 {
				continue
			}
			name := live[rng.Intn(len(live))]
			switch rng.Intn(3) {
			case 0:
				if _, err := w.Eval("sV " + name + " width " + fmt.Sprint(10+rng.Intn(200))); err != nil {
					t.Fatalf("sV %s: %v", name, err)
				}
			case 1:
				if _, err := w.Eval("sendExpose " + name); err != nil {
					t.Fatalf("expose %s: %v", name, err)
				}
			case 2:
				if _, err := w.Eval("sendClick " + name); err != nil {
					t.Fatalf("click %s: %v", name, err)
				}
			}
		case 3: // destroy
			if len(live) == 0 {
				continue
			}
			idx := rng.Intn(len(live))
			name := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			eval(t, w, "destroyWidget "+name)
		}
	}
	// topLevel + arena + survivors.
	if got := len(w.App.WidgetNames()); got != 2+len(live) {
		t.Errorf("live widgets = %d, want %d", got, 2+len(live))
	}
	for _, name := range live {
		if w.App.WidgetByName(name) == nil {
			t.Errorf("live widget %q lost", name)
		}
	}
	// The display can still be snapshot.
	if snap := eval(t, w, "snapshot"); snap == "" {
		t.Error("empty snapshot after churn")
	}
}

// TestStressRandomScripts feeds pseudo-random token soup through the
// full line protocol; the frontend must report errors, never panic.
func TestStressRandomScripts(t *testing.T) {
	w := NewTest()
	w.Interp.Stdout = func(string) {}
	rng := rand.New(rand.NewSource(7))
	tokens := []string{
		"label", "sV", "gV", "{", "}", "[", "]", "$x", "realize", "expr",
		"1+", "topLevel", "callback", "echo", "\\", "\"", ";", "%w",
		"set", "a(b)", "destroyWidget", "action", "override", "<Btn1Down>:",
	}
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(6)
		var parts []string
		for j := 0; j < n; j++ {
			parts = append(parts, tokens[rng.Intn(len(tokens))])
		}
		script := strings.Join(parts, " ")
		_, _ = w.Eval(script) // errors fine; panics are the failure mode
	}
	// The instance still works afterwards.
	if got := eval(t, w, "expr 6*7"); got != "42" {
		t.Errorf("interpreter damaged by fuzz: %q", got)
	}
}
