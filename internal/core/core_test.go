package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"wafe/internal/xaw"

	"wafe/internal/spec"
	"wafe/internal/xproto"
	"wafe/internal/xt"
)

func eval(t *testing.T, w *Wafe, script string) string {
	t.Helper()
	res, err := w.Eval(script)
	if err != nil {
		t.Fatalf("Eval(%q): %v", script, err)
	}
	return res
}

func evalErr(t *testing.T, w *Wafe, script, substr string) {
	t.Helper()
	_, err := w.Eval(script)
	if err == nil {
		t.Fatalf("Eval(%q): expected error containing %q", script, substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("Eval(%q) error %q missing %q", script, err, substr)
	}
}

// outputs and terminals hold, per test session made by newTest, what
// its puts and echo wrote and what it wrote on its terminal.
var outputs, terminals sync.Map // *Wafe → *strings.Builder

// newTest returns a test session whose puts and echo lines the output
// helper returns, and whose terminal lines the terminal helper returns.
func newTest(t *testing.T) *Wafe {
	w := NewTest()
	capture := func(m *sync.Map) func(string) {
		b := new(strings.Builder)
		m.Store(w, b)
		t.Cleanup(func() { m.Delete(w) })
		return func(line string) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	w.Interp.Stdout = capture(&outputs)
	w.Terminal = capture(&terminals)
	return w
}

// poppedUp reports whether the popup shell w is up: its window is
// mapped.
func poppedUp(w *xt.Widget) bool {
	win, ok := w.Display().Lookup(w.Window())
	return ok && win.Mapped
}

// hasCommand reports whether w's interpreter has the command name.
func hasCommand(w *Wafe, name string) bool {
	_, ok := w.Interp.Command(name)
	return ok
}

// output returns and clears what w's puts and echo wrote.
func output(w *Wafe) string { return drain(&outputs, w) }

// terminal returns and clears what w wrote on its terminal.
func terminal(w *Wafe) string { return drain(&terminals, w) }

func drain(m *sync.Map, w *Wafe) string {
	v, _ := m.Load(w)
	b := v.(*strings.Builder)
	s := b.String()
	b.Reset()
	return s
}

func TestCommandNaming(t *testing.T) {
	cases := map[string]string{
		"XtDestroyWidget":          "destroyWidget",
		"XtRealizeWidget":          "realizeWidget",
		"XtGetResourceList":        "getResourceList",
		"XawFormAllowResize":       "formAllowResize",
		"XawListHighlight":         "listHighlight",
		"XmCommandAppendValue":     "mCommandAppendValue",
		"XmCascadeButtonHighlight": "mCascadeButtonHighlight",
		"XFlush":                   "flush",
	}
	for in, want := range cases {
		if got := spec.CommandName(in); got != want {
			t.Errorf("CommandName(%q) = %q, want %q", in, got, want)
		}
	}
	classes := map[string]string{
		"Toggle":          "toggle",
		"AsciiText":       "asciiText",
		"XmCascadeButton": "mCascadeButton",
		"Label":           "label",
		"MenuButton":      "menuButton",
	}
	for in, want := range classes {
		if got := CreationCommandName(in); got != want {
			t.Errorf("CreationCommandName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestGetResourceListPaperExample runs the paper's interactive session:
//
//	label l topLevel
//	echo [getResourceList l retVal]   → 42
//	echo Resources: $retVal           → destroyCallback ancestorSensitive ...
func TestGetResourceListPaperExample(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label l topLevel")
	eval(t, w, "echo [getResourceList l retVal]")
	if got := strings.TrimSpace(output(w)); got != "42" {
		t.Errorf("resource count = %q, want 42", got)
	}
	eval(t, w, "echo Resources: $retVal")
	out := output(w)
	if !strings.HasPrefix(out, "Resources: destroyCallback ancestorSensitive x y width height borderWidth sensitive screen depth colormap background") {
		t.Errorf("resource list = %q", out)
	}
}

func TestWidgetCreationCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label label1 topLevel background red foreground blue")
	l := w.App.WidgetByName("label1")
	if l == nil {
		t.Fatal("label1 not created")
	}
	if l.PixelRes(xt.QBackground) != (xproto.Pixel{R: 255}) {
		t.Errorf("background = %v", l.PixelRes(xt.QBackground))
	}
	// Errors from the paper's rules.
	evalErr(t, w, "label", "wrong # args")
	evalErr(t, w, "label x noSuchParent", "no widget named")
	evalErr(t, w, "label y topLevel oddarg", "attribute-value pairs")
	evalErr(t, w, "label label1 topLevel", "already exists")
}

func TestUnmanagedCreation(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, "label hidden f -unmanaged")
	if w.App.WidgetByName("hidden").IsManaged() {
		t.Error("widget should be unmanaged")
	}
	eval(t, w, "manageChild hidden")
	if !w.App.WidgetByName("hidden").IsManaged() {
		t.Error("manageChild failed")
	}
	eval(t, w, "unmanageChild hidden")
	if w.App.WidgetByName("hidden").IsManaged() {
		t.Error("unmanageChild failed")
	}
}

// TestSetValuesPaperExample: sV/gV aliases and the tomato example.
func TestSetValuesPaperExample(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label label1 topLevel background red foreground blue")
	eval(t, w, `setValues label1 background "tomato" label "Hi Man"`)
	if got := eval(t, w, "gV label1 label"); got != "Hi Man" {
		t.Errorf("gV label = %q", got)
	}
	eval(t, w, "sV label1 label Other")
	if got := eval(t, w, "getValue label1 label"); got != "Other" {
		t.Errorf("getValue = %q", got)
	}
	eval(t, w, `echo [gV label1 label]`)
	if got := output(w); got != "Other\n" {
		t.Errorf("echo gV = %q", got)
	}
}

// TestSetValuesAllOrNothing: sV converts every value before it stores
// any, so a call with one bad value leaves the widget as it was. With
// the pairs gathered in a map, which of them were stored before the
// failure depended on map order. A resource named twice takes its
// last value, as the pairs apply in order.
func TestSetValuesAllOrNothing(t *testing.T) {
	w := newTest(t)
	for i := 0; i < 200; i++ {
		l := "l" + strconv.Itoa(i)
		eval(t, w, "label "+l+" topLevel width 40; realize")
		fg := eval(t, w, "gV "+l+" foreground")
		evalErr(t, w, "sV "+l+" width 77 foreground notacolor", "notacolor")
		if got := eval(t, w, "gV "+l+" width"); got != "40" {
			t.Fatalf("run %d: width %s after a failed sV, want 40", i, got)
		}
		if got := eval(t, w, "gV "+l+" foreground"); got != fg {
			t.Fatalf("run %d: foreground %s after a failed sV, want %s", i, got, fg)
		}
	}
	eval(t, w, "sV l0 width 50 width 60")
	if got := eval(t, w, "gV l0 width"); got != "60" {
		t.Errorf("width %s after sV width 50 width 60", got)
	}
}

// TestMergeResourcesPrecedence checks the paper's precedence order:
// resource file < mergeResources < creation args < setValues.
func TestMergeResourcesPrecedence(t *testing.T) {
	w := newTest(t)
	eval(t, w, "mergeResources *Font fixed *foreground blue *background red")
	eval(t, w, "label hello topLevel")
	l := w.App.WidgetByName("hello")
	if l.PixelRes(xt.QBackground) != (xproto.Pixel{R: 255}) {
		t.Errorf("mergeResources background not applied: %v", l.PixelRes(xt.QBackground))
	}
	if l.PixelRes(xaw.QForeground) != (xproto.Pixel{B: 255}) {
		t.Errorf("mergeResources foreground not applied: %v", l.PixelRes(xaw.QForeground))
	}
	// Creation args beat mergeResources.
	eval(t, w, "label l2 topLevel background green")
	if w.App.WidgetByName("l2").PixelRes(xt.QBackground) != (xproto.Pixel{G: 255}) {
		t.Error("creation arg should beat mergeResources")
	}
	// setValues beats everything.
	eval(t, w, "sV l2 background white")
	if w.App.WidgetByName("l2").PixelRes(xt.QBackground) != (xproto.Pixel{R: 255, G: 255, B: 255}) {
		t.Error("setValues should beat creation args")
	}
	// mergeResources applies to widgets created afterwards (per-class).
	eval(t, w, "mergeResources *Label.foreground gold")
	eval(t, w, "label l3 topLevel")
	if w.App.WidgetByName("l3").PixelRes(xaw.QForeground) != (xproto.Pixel{R: 255, G: 215}) {
		t.Errorf("class-specific mergeResources: %v", w.App.WidgetByName("l3").PixelRes(xaw.QForeground))
	}
	evalErr(t, w, "mergeResources *odd", "spec value")
}

// TestCallbackConverter: the paper's "command hello topLevel callback
// {echo hello world}" pattern.
func TestCallbackConverter(t *testing.T) {
	w := newTest(t)
	eval(t, w, `command hello topLevel callback "echo hello world"`)
	eval(t, w, "realize")
	clickOn(t, w, "hello")
	if got := output(w); got != "hello world\n" {
		t.Errorf("callback output = %q", got)
	}
}

// TestCallbackResourceReadable reproduces the paper's c1/c2 script: the
// callback of c2 is set to the content of c1's callback resource.
func TestCallbackResourceReadable(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, `command c1 f callback "echo i am %w."`)
	eval(t, w, `command c2 f callback [gV c1 callback] fromVert c1`)
	eval(t, w, "realize")
	clickOn(t, w, "c1")
	if got := output(w); got != "i am c1.\n" {
		t.Errorf("c1 output = %q", got)
	}
	clickOn(t, w, "c2")
	if got := output(w); got != "i am c2.\n" {
		t.Errorf("c2 output = %q", got)
	}
}

// clickOn simulates a full button click on a named widget.
func clickOn(t *testing.T, w *Wafe, name string) {
	t.Helper()
	wid := w.App.WidgetByName(name)
	if wid == nil {
		t.Fatalf("no widget %q", name)
	}
	d := wid.Display()
	win, ok := d.Lookup(wid.Window())
	if !ok {
		t.Fatalf("widget %q has no window", name)
	}
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	w.App.Pump()
}

// TestPredefinedCallbacksTable exercises every row of the paper's
// Predefined Callbacks table (experiment T1).
func TestPredefinedCallbacksTable(t *testing.T) {
	w := newTest(t)
	eval(t, w, "command b topLevel")
	eval(t, w, "transientShell popup topLevel x 400 y 400")
	eval(t, w, "label inside popup")
	eval(t, w, "realize")

	shell := w.App.WidgetByName("popup")
	d := shell.Display()

	// none: realize shell, grab none.
	eval(t, w, "callback b callback none popup")
	clickOn(t, w, "b")
	if !poppedUp(shell) {
		t.Fatal("none: shell not popped up")
	}
	if d.GrabbedWindow() != xproto.None {
		t.Error("none: grab should not be installed")
	}

	// popdown: unrealize shell.
	eval(t, w, "removeAllCallbacks b callback")
	eval(t, w, "callback b callback popdown popup")
	clickOn(t, w, "b")
	if poppedUp(shell) {
		t.Fatal("popdown: shell still up")
	}

	// exclusive: realize shell, grab exclusive.
	eval(t, w, "removeAllCallbacks b callback")
	eval(t, w, "callback b callback exclusive popup")
	clickOn(t, w, "b")
	if !poppedUp(shell) || d.GrabbedWindow() != shell.Window() {
		t.Error("exclusive: popup or grab missing")
	}
	_ = shell.Popdown()

	// nonexclusive.
	eval(t, w, "removeAllCallbacks b callback")
	eval(t, w, "callback b callback nonexclusive popup")
	clickOn(t, w, "b")
	if !poppedUp(shell) {
		t.Error("nonexclusive: shell not popped up")
	}
	_ = shell.Popdown()

	// position: position shell.
	eval(t, w, "removeAllCallbacks b callback")
	eval(t, w, "callback b callback position popup 111 222")
	clickOn(t, w, "b")
	if shell.Int(xt.QX) != 111 || shell.Int(xt.QY) != 222 {
		t.Errorf("position: %d,%d", shell.Int(xt.QX), shell.Int(xt.QY))
	}

	// positionCursor: position shell under pointer.
	eval(t, w, "removeAllCallbacks b callback")
	eval(t, w, "callback b callback positionCursor popup")
	wid := w.App.WidgetByName("b")
	win, _ := d.Lookup(wid.Window())
	bx, by := win.RootCoords(2, 2)
	clickOn(t, w, "b")
	if shell.Int(xt.QX) != bx || shell.Int(xt.QY) != by {
		t.Errorf("positionCursor: shell at %d,%d pointer at %d,%d", shell.Int(xt.QX), shell.Int(xt.QY), bx, by)
	}

	// Unknown names fail.
	evalErr(t, w, "callback b callback bogus popup", "unknown predefined callback")
	evalErr(t, w, "callback b callback none noSuchShell", "no widget named")
	evalErr(t, w, "callback b callback none b", "not a shell")
}

// TestXevExample reproduces the paper's xev demo (experiment C7): with
//
//	label xev topLevel
//	action xev override {<KeyPress>: exec(echo %k %a %s)}
//
// typing "w!" prints the documented three lines.
func TestXevExample(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label xev topLevel")
	eval(t, w, `action xev override {<KeyPress>: exec(echo %k %a %s)}`)
	eval(t, w, "realize")
	wid := w.App.WidgetByName("xev")
	d := wid.Display()
	d.SetInputFocus(wid.Window())
	if err := d.TypeString("w!"); err != nil {
		t.Fatal(err)
	}
	w.App.Pump()
	got := output(w)
	// Tcl's echo joins its arguments with single spaces, so the empty
	// %a for Shift_L collapses (the paper's printed second line).
	want := "198 w w\n174 Shift_L\n197 ! exclam\n"
	if got != want {
		t.Errorf("xev output:\n%q\nwant:\n%q", got, want)
	}
}

// TestActionPercentCodeTable covers the action percent-code validity
// matrix (experiment T2).
func TestActionPercentCodeTable(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label l topLevel width 60 height 40")
	eval(t, w, `action l override {<Btn1Down>: exec(echo b=%b t=%t x=%x y=%y X=%X Y=%Y w=%w)}`)
	eval(t, w, `action l augment {<EnterWindow>: exec(echo enter t=%t k=%k a=%a s=%s b=%b)}`)
	eval(t, w, "realize")
	wid := w.App.WidgetByName("l")
	d := wid.Display()
	win, _ := d.Lookup(wid.Window())
	rx, ry := win.RootCoords(0, 0)
	d.WarpPointer(900, 900)
	w.App.Pump()
	output(w)
	// Enter: %k %a %s %b are invalid for crossing events → empty.
	d.WarpPointer(rx+10, ry+5)
	w.App.Pump()
	if got := strings.TrimSpace(output(w)); got != "enter t=EnterNotify k= a= s= b=" {
		t.Errorf("enter expansion = %q", got)
	}
	// Button: all positional codes valid.
	d.InjectButtonPress(1)
	w.App.Pump()
	got := strings.TrimSpace(output(w))
	want := "b=1 t=ButtonPress x=10 y=5 X=" + itoa(rx+10) + " Y=" + itoa(ry+5) + " w=l"
	if got != want {
		t.Errorf("button expansion:\n%q\nwant\n%q", got, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}

// TestListCallbackPercentCodes covers the Athena List callback table
// (experiment T3): %w, %i, %s.
func TestListCallbackPercentCodes(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, `label confirmLab f label " "`)
	eval(t, w, `list chooseLst f fromVert confirmLab verticalList true list "alpha
beta
gamma"`)
	// The paper's example: sV chooseLst callback "sV confirmLab label %s"
	eval(t, w, `sV chooseLst callback "echo w=%w i=%i; sV confirmLab label %s"`)
	eval(t, w, "realize")
	wid := w.App.WidgetByName("chooseLst")
	d := wid.Display()
	win, _ := d.Lookup(wid.Window())
	// Click second row.
	x, y := win.RootCoords(3, wid.Int(xaw.QInternalHeight)+15+2)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	d.InjectButtonRelease(1)
	w.App.Pump()
	if got := strings.TrimSpace(output(w)); got != "w=chooseLst i=1" {
		t.Errorf("percent output = %q", got)
	}
	if got := eval(t, w, "gV confirmLab label"); got != "beta" {
		t.Errorf("confirmLab = %q", got)
	}
}

// TestMenuButtonPopupMenu reproduces the paper's MenuButton example.
func TestMenuButtonPopupMenu(t *testing.T) {
	w := newTest(t)
	eval(t, w, "menuButton mb topLevel menuName mymenu")
	eval(t, w, "simpleMenu mymenu topLevel")
	eval(t, w, "smeBSB entry1 mymenu label First")
	eval(t, w, `action mb override "<EnterWindow>: PopupMenu()"`)
	eval(t, w, "realize")
	wid := w.App.WidgetByName("mb")
	d := wid.Display()
	d.WarpPointer(900, 900)
	w.App.Pump()
	win, _ := d.Lookup(wid.Window())
	x, y := win.RootCoords(2, 2)
	d.WarpPointer(x, y)
	w.App.Pump()
	if !poppedUp(w.App.WidgetByName("mymenu")) {
		t.Error("menu did not pop up on EnterWindow")
	}
}

func TestExecActionRunsAnyWafeCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label l topLevel")
	eval(t, w, `label target topLevel label before`)
	eval(t, w, `action l override {<Btn1Down>: exec(sV target label after)}`)
	eval(t, w, "realize")
	clickRaw(t, w, "l")
	if got := eval(t, w, "gV target label"); got != "after" {
		t.Errorf("target label = %q", got)
	}
}

func clickRaw(t *testing.T, w *Wafe, name string) {
	t.Helper()
	wid := w.App.WidgetByName(name)
	d := wid.Display()
	win, _ := d.Lookup(wid.Window())
	x, y := win.RootCoords(1, 1)
	d.WarpPointer(x, y)
	d.InjectButtonPress(1)
	w.App.Pump()
	d.InjectButtonRelease(1)
	w.App.Pump()
}

func TestMultiDisplayShells(t *testing.T) {
	w := newTest(t)
	eval(t, w, "applicationShell top2 unit-core-dec4:0")
	eval(t, w, "label remote top2 label faraway")
	eval(t, w, "realize top2")
	shell := w.App.WidgetByName("top2")
	if shell.Display().Name != "unit-core-dec4:0" {
		t.Errorf("shell display = %q", shell.Display().Name)
	}
	lab := w.App.WidgetByName("remote")
	if lab.Display() != shell.Display() {
		t.Error("child not mapped to the second display")
	}
	if !lab.IsRealized() {
		t.Error("remote child not realized")
	}
	if got := eval(t, w, "displayList"); !strings.Contains(got, "unit-core-dec4:0") {
		t.Errorf("displayList = %q", got)
	}
}

func TestQuitCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, "quit")
	if !w.QuitRequested() || w.ExitCode() != 0 {
		t.Error("quit not recorded")
	}
	w2 := newTest(t)
	eval(t, w2, "quit 3")
	if w2.ExitCode() != 3 {
		t.Errorf("exit code = %d", w2.ExitCode())
	}
}

func TestTclExitMapsToQuit(t *testing.T) {
	w := newTest(t)
	if _, err := w.Eval("exit 7"); err != nil {
		t.Fatalf("exit should be absorbed: %v", err)
	}
	if !w.QuitRequested() || w.ExitCode() != 7 {
		t.Errorf("quit=%v code=%d", w.QuitRequested(), w.ExitCode())
	}
}

func TestDestroyWidgetCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, "label a f")
	eval(t, w, "label b f fromVert a")
	before := len(w.App.WidgetNames())
	eval(t, w, "destroyWidget f")
	if got := len(w.App.WidgetNames()); got != before-3 {
		t.Errorf("live widgets = %d, want %d", got, before-3)
	}
	evalErr(t, w, "gV a label", "no widget named")
}

func TestActionCommandModes(t *testing.T) {
	w := newTest(t)
	eval(t, w, "command c topLevel")
	// Override replaces Btn1Down set() with a custom action.
	eval(t, w, `action c override {<Btn1Down>: exec(echo overridden)}`)
	eval(t, w, "realize")
	clickRaw(t, w, "c")
	out := output(w)
	if !strings.Contains(out, "overridden") {
		t.Errorf("override failed: %q", out)
	}
	evalErr(t, w, "action c badmode {<Btn1Down>: exec(echo x)}", "bad translation merge mode")
	evalErr(t, w, "action c override {garbage}", "no")
}

func TestTimeoutCommand(t *testing.T) {
	w := newTest(t)
	id := eval(t, w, "addTimeOut 1 {echo timer-fired; quit}")
	if !strings.HasPrefix(id, "timeout") {
		t.Fatalf("id = %q", id)
	}
	code := w.App.MainLoop()
	if code != 0 {
		t.Errorf("exit = %d", code)
	}
	if got := output(w); !strings.Contains(got, "timer-fired") {
		t.Errorf("output = %q", got)
	}
	// removeTimeOut on unknown id errors.
	evalErr(t, w, "removeTimeOut nope", "no timeout")
	id2 := eval(t, w, "addTimeOut 50000 {echo never}")
	eval(t, w, "removeTimeOut "+id2)
}

func TestSelectionsCommands(t *testing.T) {
	w := newTest(t)
	eval(t, w, `asciiText txt topLevel string "selected stuff"`)
	eval(t, w, "realize")
	eval(t, w, `ownSelection txt PRIMARY {gV txt string}`)
	if got := eval(t, w, "getSelectionValue txt PRIMARY STRING"); got != "selected stuff" {
		t.Errorf("selection = %q", got)
	}
	eval(t, w, "disownSelection txt PRIMARY")
	evalErr(t, w, "getSelectionValue txt PRIMARY", "no value")
}

func TestMotifCommandsThroughWafe(t *testing.T) {
	w := newTest(t)
	eval(t, w, "mRowColumn rc topLevel")
	eval(t, w, `mLabel l rc fontList "*b&h-lucida-medium-r*14*=ft,*b&h-lucida-bold-r*14*=bft" labelString {I'm\bft bold\ft and\rl strange}`)
	if got := eval(t, w, "gV l labelString"); got != `I'm\bft bold\ft and\rl strange` {
		t.Errorf("labelString round-trip = %q", got)
	}
	eval(t, w, "mPushButton pressMe rc")
	eval(t, w, "transientShell pop topLevel x 500 y 500")
	eval(t, w, "mLabel inpop pop")
	eval(t, w, "callback pressMe armCallback none pop")
	eval(t, w, "realize")
	clickRaw(t, w, "pressMe")
	if !poppedUp(w.App.WidgetByName("pop")) {
		t.Error("armCallback none did not pop up the shell")
	}
	eval(t, w, "mCascadeButton mc rc")
	eval(t, w, "mCascadeButtonHighlight mc true")
	eval(t, w, "mCommand mcmd rc")
	eval(t, w, "mCommandAppendValue mcmd {ls -l}")
	if got := eval(t, w, "gV mcmd value"); got != "ls -l" {
		t.Errorf("mCommandAppendValue = %q", got)
	}
}

func TestPixmapConverterFallback(t *testing.T) {
	w := newTest(t)
	// XBM first.
	eval(t, w, `label b1 topLevel bitmap {#define i_width 8
#define i_height 1
static char i_bits[] = {0xff};}`)
	// XPM fallback when XBM parsing fails.
	eval(t, w, `label b2 topLevel bitmap {static char *x[] = {"1 1 1 1", "a c blue", "a"};}`)
	evalErr(t, w, "label b3 topLevel bitmap garbage", "neither XBM nor XPM")
}

func TestSnapshotAndWidgetTree(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, `label hello f label "Wafe new World"`)
	eval(t, w, "realize")
	snap := eval(t, w, "snapshot")
	if !strings.Contains(snap, "Wafe new World") {
		t.Errorf("snapshot missing label:\n%s", snap)
	}
	tree := eval(t, w, "widgetTree")
	if !strings.Contains(tree, "topLevel (ApplicationShell)") || !strings.Contains(tree, "hello (Label)") {
		t.Errorf("widgetTree = %q", tree)
	}
	list := eval(t, w, "widgetList")
	if !strings.Contains(list, "hello") {
		t.Errorf("widgetList = %q", list)
	}
}

func TestScriptErrorReporting(t *testing.T) {
	w := newTest(t)
	eval(t, w, `command bad topLevel callback "nosuchcommand"`)
	eval(t, w, "realize")
	clickOn(t, w, "bad")
	if out := terminal(w); !strings.Contains(out, "callback error") {
		t.Errorf("error not reported on the terminal: %q", out)
	}
	if out := output(w); out != "" {
		t.Errorf("error reached the interpreter's output: %q", out)
	}
}

// TestLayering is experiment F1: a widget tree built through the full
// Tcl → Wafe → Xt → Xaw → xproto stack works end to end.
func TestLayering(t *testing.T) {
	w := newTest(t)
	eval(t, w, `
		form top topLevel
		asciiText input top editType edit width 200
		label result top label {} width 200 fromVert input
		command quitBtn top fromVert result callback quit
		label info top fromVert result fromHoriz quitBtn label {} borderWidth 0 width 150
		realize
	`)
	for _, name := range []string{"top", "input", "result", "quitBtn", "info"} {
		wid := w.App.WidgetByName(name)
		if wid == nil || !wid.IsRealized() {
			t.Errorf("widget %q missing or unrealized", name)
		}
	}
	// Type into the text widget and read it back via gV.
	wid := w.App.WidgetByName("input")
	d := wid.Display()
	d.SetInputFocus(wid.Window())
	_ = d.TypeString("360")
	w.App.Pump()
	if got := eval(t, w, "gV input string"); got != "360" {
		t.Errorf("typed string = %q", got)
	}
	// Clicking quit requests termination.
	clickOn(t, w, "quitBtn")
	if !w.QuitRequested() {
		t.Error("quit callback did not run")
	}
}

func TestMemoryManagementOnSetValues(t *testing.T) {
	// "every time a string resource, a callback ... is updated, the old
	// value is freed": replacing a callback via sV replaces, not
	// appends.
	w := newTest(t)
	eval(t, w, `command c topLevel callback "echo one"`)
	eval(t, w, `sV c callback "echo two"`)
	eval(t, w, "realize")
	clickOn(t, w, "c")
	if got := output(w); got != "two\n" {
		t.Errorf("output = %q (old callback must be replaced)", got)
	}
	if got := eval(t, w, "gV c callback"); got != "echo two" {
		t.Errorf("callback source = %q", got)
	}
}

func TestEchoJoinsArgs(t *testing.T) {
	w := newTest(t)
	eval(t, w, "echo listening on 5")
	if got := output(w); got != "listening on 5\n" {
		t.Errorf("echo = %q", got)
	}
}

// TestListCommandCollision: the derived creation command "list"
// collides with Tcl's list built-in; dispatch goes by the father
// argument.
func TestListCommandCollision(t *testing.T) {
	w := newTest(t)
	// Tcl semantics when the second word is not a widget.
	if got := eval(t, w, "list year 1994"); got != "year 1994" {
		t.Errorf("tcl list = %q", got)
	}
	if got := eval(t, w, "llength [list a b c]"); got != "3" {
		t.Errorf("llength = %q", got)
	}
	// Widget creation when the father exists.
	eval(t, w, "form f topLevel")
	eval(t, w, `list hits f verticalList true list "x
y"`)
	wid := w.App.WidgetByName("hits")
	if wid == nil || wid.Class.Name != "List" {
		t.Fatalf("List widget not created: %+v", wid)
	}
	// Tcl list still works afterwards.
	if got := eval(t, w, "lindex [list p q] 1"); got != "q" {
		t.Errorf("tcl list after widget = %q", got)
	}
}

func TestNameToWidget(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, "box inner f")
	eval(t, w, "label deep inner")
	if got := eval(t, w, "nameToWidget topLevel f.inner.deep"); got != "deep" {
		t.Errorf("nameToWidget = %q", got)
	}
	if got := eval(t, w, "nameToWidget f inner"); got != "inner" {
		t.Errorf("relative path = %q", got)
	}
	evalErr(t, w, "nameToWidget topLevel f.missing", "no descendant")
}

func TestInstallAccelerators(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, `command btn f callback "echo accelerated"`)
	eval(t, w, `asciiText entry f fromVert btn editType edit width 100`)
	// Give the button an accelerator binding that triggers notify.
	eval(t, w, `sV btn accelerators {Ctrl<Key>Return: set() notify() unset()}`)
	eval(t, w, "installAccelerators entry btn")
	eval(t, w, "realize")
	// Pressing Ctrl-Return inside the text widget activates the button.
	wid := w.App.WidgetByName("entry")
	d := wid.Display()
	d.SetInputFocus(wid.Window())
	ctrl, ret := 175, xproto.DefaultKeymap().ReturnKeycode
	if name, _ := xproto.DefaultKeymap().Lookup(ctrl, false); name != "Control_L" {
		t.Fatalf("keycode %d is %q, not Control_L", ctrl, name)
	}
	d.InjectKeycode(ctrl, true)
	d.InjectKeycode(ret, true)
	d.InjectKeycode(ret, false)
	d.InjectKeycode(ctrl, false)
	w.App.Pump()
	if got := output(w); !strings.Contains(got, "accelerated") {
		t.Errorf("accelerator did not fire: %q", got)
	}
	evalErr(t, w, "installAccelerators entry f", "no accelerators")
}

func TestWidgetIntrospectionCommands(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, "label a f")
	eval(t, w, "label b f fromVert a")
	if got := eval(t, w, "widgetChildren f"); got != "a b" {
		t.Errorf("children = %q", got)
	}
	if got := eval(t, w, "widgetParent a"); got != "f" {
		t.Errorf("parent = %q", got)
	}
	if got := eval(t, w, "widgetParent topLevel"); got != "" {
		t.Errorf("root parent = %q", got)
	}
	if got := eval(t, w, "widgetClass a"); got != "Label" {
		t.Errorf("class = %q", got)
	}
	if got := eval(t, w, "isRealized a"); got != "0" {
		t.Errorf("isRealized before realize = %q", got)
	}
	eval(t, w, "realize")
	if got := eval(t, w, "isRealized a"); got != "1" {
		t.Errorf("isRealized after realize = %q", got)
	}
	if got := eval(t, w, "isManaged a"); got != "1" {
		t.Errorf("isManaged = %q", got)
	}
}

// TestRddDragAndDropCommands exercises the Rdd integration the paper
// mentions through the script-level commands.
func TestRddDragAndDropCommands(t *testing.T) {
	w := newTest(t)
	eval(t, w, "box b topLevel orientation horizontal")
	eval(t, w, `label src b label {payload-text}`)
	eval(t, w, `label dst b label {drop here}`)
	eval(t, w, "realize")
	eval(t, w, `rddRegisterSource src {gV %w label}`)
	eval(t, w, `rddRegisterTarget dst {sV %w label %v; echo dropped %v at %x,%y}`)
	eval(t, w, "rddDrag src dst")
	if got := eval(t, w, "gV dst label"); got != "payload-text" {
		t.Errorf("dst label = %q", got)
	}
	if out := output(w); !strings.Contains(out, "dropped payload-text at") {
		t.Errorf("drop script output = %q", out)
	}
	// Unregister stops drops.
	eval(t, w, "rddUnregisterTarget dst")
	eval(t, w, "sV dst label reset")
	eval(t, w, "rddDrag src dst")
	if got := eval(t, w, "gV dst label"); got != "reset" {
		t.Errorf("drop fired after unregister: %q", got)
	}
	evalErr(t, w, "rddDrag src nosuch", "no widget named")
}

// TestRddDropValueKeepsPercent: a dropped value is substituted once,
// so percent signs in it stay as they are, and "%%" in a drop script
// is a literal percent, as in every other percent context.
func TestRddDropValueKeepsPercent(t *testing.T) {
	w := newTest(t)
	eval(t, w, "box b topLevel orientation horizontal")
	eval(t, w, `label src b label {50%x off %y}`)
	eval(t, w, `label dst b`)
	eval(t, w, "realize")
	eval(t, w, `rddRegisterSource src {gV %w label}`)
	eval(t, w, `rddRegisterTarget dst {set got %v; set pct 100%%}`)
	eval(t, w, "rddDrag src dst")
	if got := eval(t, w, "set got"); got != "50%x off %y" {
		t.Errorf("dropped value = %q, want it as dragged", got)
	}
	if got := eval(t, w, "set pct"); got != "100%" {
		t.Errorf("pct = %q, want 100%%", got)
	}
}

func TestWidgetSetConfigurations(t *testing.T) {
	athena, err := New(Config{TestDisplay: true, Set: SetAthena})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCommand(athena, "asciiText") {
		t.Error("athena build lacks asciiText")
	}
	if hasCommand(athena, "mPushButton") {
		t.Error("athena build must not have Motif widgets (no free mixing)")
	}
	motif, err := New(Config{TestDisplay: true, Set: SetMotif, AppName: "mofe"})
	if err != nil {
		t.Fatal(err)
	}
	if hasCommand(motif, "asciiText") {
		t.Error("motif build must not have asciiText (paper: not possible to mix freely)")
	}
	if !hasCommand(motif, "mCascadeButton") {
		t.Error("motif build lacks mCascadeButton")
	}
	// Plotter set is in both.
	if !hasCommand(athena, "barGraph") || !hasCommand(motif, "barGraph") {
		t.Error("plotter classes missing")
	}
}
