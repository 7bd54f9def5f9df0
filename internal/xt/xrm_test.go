package xt

import (
	"fmt"
	"sync"
	"testing"

	"wafe/internal/obs"
)

// TestXrmContinuationLines covers the backslash-newline continuation
// rule: an odd trailing-backslash run joins the next line with the
// backslash and newline elided.
func TestXrmContinuationLines(t *testing.T) {
	db := NewXrm()
	err := db.EnterString("*label: hello \\\nworld\n" +
		"*form.\\\nbutton.fg: red\n" +
		"*literal: back\\\\\n" + // even run: no continuation, stays literal
		"*cr: joined\\\r\nhere\n")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		names, classes []string
		res, want      string
	}{
		{[]string{"wafe"}, []string{"Wafe"}, "label", "hello world"},
		{[]string{"wafe", "form", "button"}, []string{"Wafe", "Form", "Button"}, "fg", "red"},
		{[]string{"wafe"}, []string{"Wafe"}, "literal", `back\\`},
		{[]string{"wafe"}, []string{"Wafe"}, "cr", "joinedhere"},
	}
	for _, c := range cases {
		got, ok := db.Query(c.names, c.classes, c.res, c.res)
		if !ok || got != c.want {
			t.Errorf("Query(%v, %q) = (%q, %v), want %q", c.names, c.res, got, ok, c.want)
		}
	}
	// A lone trailing backslash on the final line stays literal.
	db2 := NewXrm()
	if err := db2.EnterString("*tail: end\\"); err != nil {
		t.Fatal(err)
	}
	if got, _ := db2.Query([]string{"a"}, []string{"A"}, "tail", "Tail"); got != "end\\" {
		t.Errorf("trailing backslash on last line = %q, want %q", got, "end\\")
	}
}

// TestXrmReplaceTakesCurrentPriority is the regression test for the
// replace-keeps-old-seq bug: re-entering a specification must give it
// the *current* insertion priority, exactly as if it had been removed
// and added fresh. Distinct specifications can never tie on score (a
// score vector plus the query path pins the component list), so the
// sequence ordering is asserted white-box on the tree values.
func TestXrmReplaceTakesCurrentPriority(t *testing.T) {
	db := NewXrm()
	must := func(spec, val string) {
		t.Helper()
		if err := db.Enter(spec, val); err != nil {
			t.Fatal(err)
		}
	}
	must("*a.r", "first")
	must("*b.r", "middle")
	must("*a.r", "replaced") // two entries tied at the same tree shape
	if db.Len() != 2 {
		t.Fatalf("Len = %d, want 2", db.Len())
	}
	seqOf := func(name string) int {
		t.Helper()
		n := db.root.loose[StringToQuark(name)]
		if n == nil {
			t.Fatalf("no node for %q", name)
		}
		v := n.tightVals[StringToQuark("r")]
		if v == nil {
			t.Fatalf("no value under %q", name)
		}
		return v.seq
	}
	if a, b := seqOf("a"), seqOf("b"); a <= b {
		t.Errorf("replacement kept stale priority: seq(a)=%d <= seq(b)=%d", a, b)
	}
	if got, _ := db.Query([]string{"a"}, []string{"A"}, "r", "R"); got != "replaced" {
		t.Errorf("value after replacement = %q", got)
	}
}

// TestXrmGenerationInvalidation checks that Enter bumps the generation
// and that both the string Query path and a held SearchList observe
// values entered after the search list was built and cached.
func TestXrmGenerationInvalidation(t *testing.T) {
	db := NewXrm()
	if err := db.Enter("*color", "red"); err != nil {
		t.Fatal(err)
	}
	g0 := db.gen.Load()
	names := []string{"wafe", "form"}
	classes := []string{"Wafe", "Form"}
	if v, _ := db.Query(names, classes, "color", "Color"); v != "red" {
		t.Fatalf("initial query = %q", v)
	}
	sl := db.SearchListFor(
		[]Quark{StringToQuark("wafe"), StringToQuark("form")},
		[]Quark{StringToQuark("Wafe"), StringToQuark("Form")})
	if err := db.Enter("wafe.form.color", "blue"); err != nil {
		t.Fatal(err)
	}
	if db.gen.Load() == g0 {
		t.Error("Enter did not bump the generation")
	}
	if v, _ := db.Query(names, classes, "color", "Color"); v != "blue" {
		t.Errorf("query after Enter = %q, want blue", v)
	}
	// The stale cached list must still resolve correctly.
	if v, ok := db.SearchResource(sl, StringToQuark("color"), StringToQuark("Color")); !ok || v != "blue" {
		t.Errorf("SearchResource on stale list = (%q, %v), want blue", v, ok)
	}
}

// TestXrmObsMetrics wires a metrics registry to the database and checks
// the search-list hit/miss counters and the generation gauge.
func TestXrmObsMetrics(t *testing.T) {
	m := obs.New()
	db := NewXrm()
	db.setMetrics(m)
	if err := db.Enter("*x", "1"); err != nil {
		t.Fatal(err)
	}
	names, classes := []string{"app"}, []string{"App"}
	db.Query(names, classes, "x", "X") // miss (build)
	db.Query(names, classes, "x", "X") // hit
	db.Query(names, classes, "x", "X") // hit
	if v := m.Xt.XrmSearchListMisses.Load(); v != 1 {
		t.Errorf("misses = %d, want 1", v)
	}
	if v := m.Xt.XrmSearchListHits.Load(); v != 2 {
		t.Errorf("hits = %d, want 2", v)
	}
	if v := m.Xt.XrmGeneration.Load(); v != int64(db.gen.Load()) {
		t.Errorf("generation gauge = %d, want %d", v, db.gen.Load())
	}
}

// TestXrmConcurrentMergeAndCreate exercises the race surface the quark
// engine adds: concurrent mergeResources-style Enter calls, intern-table
// growth, and cached search-list invalidation, all while widgets are
// being created (and resolving their resources) on another goroutine.
// Run under -race this is the satellite gate for the intern table and
// the generation counter.
func TestXrmConcurrentMergeAndCreate(t *testing.T) {
	app := NewTestApp("wafe")
	top, err := app.CreateWidget("topLevel", ApplicationShellClass, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				spec := fmt.Sprintf("*w%d.res%d", wr, i%17)
				if err := app.DB.Enter(spec, fmt.Sprintf("v%d", i)); err != nil {
					t.Error(err)
					return
				}
				StringToQuark(fmt.Sprintf("sym-%d-%d", wr, i%101))
				app.DB.Query([]string{"wafe", "box"}, []string{"Wafe", "Box"}, "label", "Label")
				i++
			}
		}(wr)
	}
	for i := 0; i < 50; i++ {
		box, err := app.CreateWidget(fmt.Sprintf("box%d", i), testBoxClass, top, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.CreateWidget(fmt.Sprintf("lab%d", i), testLabelClass, box, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
