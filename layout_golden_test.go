package wafe

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"wafe/internal/core"
	"wafe/internal/xaw"
	"wafe/internal/xt"
)

// The layout golden corpus pins what geometry management puts on the
// screen: for every demo and a set of hand-written trees, each widget's
// final geometry, realized and managed state, plus the ASCII snapshot
// and an RGBA hash of every realized shell, after each step of the
// script. The files under testdata/layout were captured while every
// Manage still relaid its parent out at once, so deferring layout to
// realize shows up as a byte difference wherever it changes the screen.
// One line changed on purpose: Paned makes its grips in its first
// layout, now at realize after every pane, so in paned_grips step 4
// p1Grip stacks above p3 rather than under it (Xaw's Paned raises its
// grips above the panes too). viewport_unsized is newer than the rest:
// a Viewport without an explicit width and height used to recurse
// through its own resize until the stack overflowed, so its file was
// captured once that was fixed. Since exposure and the renderer show
// only what is on screen, four files differ from their first capture:
// bulk_popup's popup runs below the screen, so those rows of its
// snapshot are blank; viewport_scrollbar and viewport_unsized no
// longer paint children's pixels outside the Viewport; and in
// paned_grips step 4 the panes a layout shrank are exposed and repaint
// their labels centred, while p2Grip, whose pane is gone, is unmanaged.
//
// A missing golden file is written from the current tree and the test
// fails, so regenerating one is a deliberate delete-run-review cycle.

// layoutDump renders the realized part of w's widget tree, siblings
// sorted by name. Unrealized widgets are left out: Xt settles geometry
// at realize, and the children a layout creates for itself (Paned
// grips, the Viewport scrollbar) appear when that layout first runs,
// so neither is part of what a user sees before then. Sibling order is
// left out for the same reason; stacking is still covered by the RGBA
// hash.
func layoutDump(w *core.Wafe) string {
	var b strings.Builder
	var shells []*xt.Widget
	var walk func(x *xt.Widget, depth int)
	walk = func(x *xt.Widget, depth int) {
		if !x.IsRealized() {
			return
		}
		if x.Class.Shell {
			shells = append(shells, x)
		}
		managed := "unmanaged"
		if x.IsManaged() {
			managed = "managed"
		}
		fmt.Fprintf(&b, "%s%s %s %dx%d+%d+%d realized %s\n", strings.Repeat("  ", depth), x.Name, x.Class.Name,
			x.Int(xt.QWidth), x.Int(xt.QHeight), x.Int(xt.QX), x.Int(xt.QY), managed)
		kids := x.Children()
		sort.Slice(kids, func(i, j int) bool { return kids[i].Name < kids[j].Name })
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	walk(w.TopLevel, 0)
	for _, s := range shells {
		d := s.Display()
		fmt.Fprintf(&b, "-- shell %s rgba %x\n", s.Name, sha256.Sum256(d.RenderImage(s.Window()).Pix))
		b.WriteString(d.Snapshot(s.Window()))
		if !strings.HasSuffix(b.String(), "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// runLayoutCase evaluates the steps in one fresh instance and returns
// the dump after each, headed by the step's first line.
func runLayoutCase(steps []string) string {
	w := core.NewTest()
	w.Interp.Stdout = func(string) {}
	var b strings.Builder
	for i, step := range steps {
		head := strings.TrimSpace(step)
		if nl := strings.IndexByte(head, '\n'); nl >= 0 {
			head = head[:nl] + " ..."
		}
		fmt.Fprintf(&b, "== step %d: %s\n", i+1, head)
		if _, err := w.Eval(step); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		}
		w.App.Pump()
		b.WriteString(layoutDump(w))
	}
	return b.String()
}

// bulkShapedPopup builds a popup the shape of the end-to-end bulk
// workload's rebuild under bulkSetup's form: a transientShell pop
// holding a form of 40 label/command/toggle/asciiText children chained
// by fromVert, plus a 500-item list.
func bulkShapedPopup() string {
	kinds := [...]string{"label", "command", "toggle", "asciiText"}
	var b strings.Builder
	b.WriteString("transientShell pop top\nform pf pop\n")
	for i := 0; i < 40; i++ {
		kind := kinds[i%len(kinds)]
		fmt.Fprintf(&b, "%s w%d pf", kind, i)
		if i > 0 {
			fmt.Fprintf(&b, " fromVert w%d", i-1)
		}
		res := "label"
		if kind == "asciiText" {
			res = "string"
		}
		fmt.Fprintf(&b, " %s {item %d}\n", res, i)
	}
	items := make([]string, 500)
	for j := range items {
		items[j] = fmt.Sprintf("row%03d", j)
	}
	fmt.Fprintf(&b, "list wl pf fromVert w39 list {%s}\n", strings.Join(items, "\n"))
	return b.String()
}

const bulkSetup = `form top topLevel
asciiText text top editType edit width 400 height 200
label status top fromVert text label {idle} width 400
realize`

// layoutCase is a script whose layout the corpus pins after each step.
type layoutCase struct {
	name  string
	steps []string
}

var layoutCases = []layoutCase{
	{"bulk_popup", []string{
		bulkSetup,
		bulkShapedPopup(),
		"popup pop none",
		"popdown pop",
		"popup pop none",
		"destroyWidget pop",
		bulkShapedPopup() + "popup pop none",
	}},
	{"form_in_form", []string{
		`form outer topLevel
label a outer label {Outer A}
form inner outer fromVert a borderWidth 2
label b inner label {Inner B}
command c inner fromHoriz b label {Go}
label d inner fromVert b label {Inner D} width 120
label e outer fromHoriz inner fromVert a label {Right}`,
		"realize",
		"sV d width 200",
		"unmanageChild c",
		"manageChild c",
		"destroyWidget b",
		"label f inner fromVert d label {late arrival}",
		"sV inner defaultDistance 10",
	}},
	{"manage_after_realize", []string{
		`form top topLevel
label a top label A
realize`,
		`form sub top -unmanaged fromVert a
label s1 sub label {sub one}
label s2 sub fromVert s1 label {sub two}
command s3 sub fromVert s2 fromHoriz s1 label {three}`,
		"manageChild sub",
		"unmanageChild a",
		"manageChild a",
		"sV s1 label {sub one, longer now}",
		"destroyWidget sub",
	}},
	{"paned_grips", []string{
		`paned p topLevel
label p1 p label {pane one}
asciiText p2 p string {two} height 60 width 150
label p3 p label {pane three} showGrip false
label p4 p label {pane four}`,
		"realize",
		"sV p1 height 40",
		"unmanageChild p2",
		"manageChild p2",
		"label p5 p label {pane five}",
	}},
	{"viewport_scrollbar", []string{
		`viewport v topLevel allowVert true width 120 height 80
list l v list {alpha
beta
gamma
delta
epsilon
zeta
eta
theta
iota
kappa
lambda
mu
nu
xi
omicron
pi}`,
		"realize",
		"sV v height 120",
		"sV l list {one\ntwo\nthree}",
	}},
	{"viewport_unsized", []string{
		`viewport vp topLevel allowVert true
label l vp label hello height 600`,
		"realize",
		"sV vp width 80",
	}},
	{"box", []string{
		`box b topLevel
command b1 b label One
command b2 b label Two
label b3 b label Three`,
		"realize",
		"sV b1 label {Longer One}",
		"command b4 b label Four",
		"destroyWidget b2",
		"sV b orientation horizontal",
	}},
	{"box_horizontal", []string{
		`box b topLevel orientation horizontal hSpace 8
toggle t1 b label {Toggle one}
toggle t2 b label {Two}
scrollbar sb b orientation horizontal length 60
stripChart sc b`,
		"realize",
		"sV t2 borderWidth 3",
	}},
	{"dialog", []string{
		`dialog d topLevel label {Your name:} value {wafe}
command ok d label OK
command cancel d label Cancel fromHoriz ok`,
		"realize",
		"sV d label {A much longer prompt than before:}",
	}},
	{"shell_resize", []string{
		`form top topLevel
label l top label {main window}
realize`,
		`transientShell fixed top allowShellResize false width 200 height 120
form ff fixed
label fl ff label {fixed shell}
popup fixed none`,
		"sV fl width 300",
		`transientShell grow top
form gf grow
label gl gf label {growing shell}
popup grow none`,
		"sV gl width 300",
		"popdown grow",
		"sV gl width 150",
		"popup grow none",
	}},
	{"form_allow_resize", []string{
		`form fa topLevel
formAllowResize fa false
label x fa label {x}
label y fa fromVert x label {y}`,
		"realize",
		"sV x width 300",
		"formAllowResize fa true",
		"sV x width 100",
	}},
	{"simple_menu", []string{
		`form top topLevel
menuButton mb top label File menuName m
simpleMenu m top
smeBSB e1 m label Open
smeLine sep m
smeBSB e2 m label {Save as ...}
realize`,
		"popup m none",
		"smeBSB e3 m label {A rather long entry}",
		"popdown m",
	}},
	{"motif_rowcolumn", []string{
		`mRowColumn rc topLevel
mPushButton pb1 rc labelString {One}
mLabel ml rc labelString {Two, longer}
mPushButton pb2 rc labelString {Three}`,
		"realize",
		"sV ml labelString {x}",
		"mPushButton pb3 rc labelString {Four}",
	}},
	{"plotter_form", []string{
		`form top topLevel
label title top label {load}
barGraph bars top fromVert title width 240 height 80 data {1 2 3 4 3 2 1 0} labels {a b c d e f g h}
lineGraph hist top fromVert bars width 240 height 60 gridLines 2`,
		"realize",
		"sV bars height 100",
	}},
}

func TestLayoutGolden(t *testing.T) {
	var cases []layoutCase
	demos, err := filepath.Glob("demos/*.wafe")
	if err != nil || len(demos) == 0 {
		t.Fatalf("no demos found: %v", err)
	}
	for _, demo := range demos {
		data, err := os.ReadFile(demo)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		if strings.HasPrefix(src, "#!") {
			if nl := strings.IndexByte(src, '\n'); nl >= 0 {
				src = src[nl+1:]
			}
		}
		cases = append(cases, layoutCase{"demo_" + strings.TrimSuffix(filepath.Base(demo), ".wafe"), []string{src}})
	}
	for _, c := range append(cases, layoutCases...) {
		t.Run(c.name, func(t *testing.T) {
			got := runLayoutCase(c.steps)
			if again := runLayoutCase(c.steps); again != got {
				t.Fatalf("layout is not deterministic across two runs")
			}
			path := filepath.Join("testdata", "layout", c.name+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("wrote missing golden %s; review it and run again", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("layout drifted from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// firstDiff reports the first differing line of two dumps with a few
// lines of context.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			lo := i - 3
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("line %d:\ncontext:\n%s\nwant: %q\ngot:  %q", i+1, strings.Join(gl[lo:i], "\n"), w, g)
		}
	}
	return "(no line differs)"
}

// countFormLayouts wraps Form's ChangeManaged for the rest of the test
// and returns the call counter.
func countFormLayouts(t *testing.T) *int {
	orig := xaw.FormClass.ChangeManaged
	n := new(int)
	xaw.FormClass.ChangeManaged = func(w *xt.Widget) {
		*n++
		orig(w)
	}
	t.Cleanup(func() { xaw.FormClass.ChangeManaged = orig })
	return n
}

// TestFormLayoutBudget pins how often geometry management lays out a
// Form: once when a popup of the bulk workload's shape is built and
// popped up, never while it is destroyed, and once when a child is
// managed into a realized form.
func TestFormLayoutBudget(t *testing.T) {
	calls := countFormLayouts(t)
	w := core.NewTest()
	w.Interp.Stdout = func(string) {}
	eval := func(script string) {
		t.Helper()
		if _, err := w.Eval(script); err != nil {
			t.Fatalf("%s: %v", strings.SplitN(script, "\n", 2)[0], err)
		}
	}
	eval(bulkSetup)
	for _, c := range []struct {
		what, script string
		want         int
	}{
		{"build and pop up", bulkShapedPopup() + "popup pop none", 1},
		{"destroy", "destroyWidget pop", 0},
		{"manage into a realized form", "label late top fromVert status label {late}", 1},
	} {
		*calls = 0
		eval(c.script)
		if *calls != c.want {
			t.Errorf("%s: Form ChangeManaged ran %d times, want %d", c.what, *calls, c.want)
		}
	}
}
