package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConversionMessages pins the one message each parameter type's
// conversion gives, whichever command the argument belongs to.
func TestConversionMessages(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel; label l f; list lst f; transientShell sh f")
	for script, want := range map[string]string{
		"warpPointer a1 0":            `expected integer but got "a1"`,
		"stripChartSample sc a1":      `no widget named "sc"`,
		"viewportSetLocation l 0 0":   `widget "l" is a Label, not a Viewport`,
		"listHighlight lst 1.5":       `expected integer but got "1.5"`,
		"listChange lst {a b} a1":     `expected boolean value but got "a1"`,
		"listChange lst {a {b}c}":     "list element in braces followed by",
		"popup sh a1":                 `xt: bad grab kind "a1"`,
		"scrollbarSetThumb f 0 0":     `widget "f" is a Form, not a Scrollbar`,
		"mCascadeButtonHighlight l 1": `widget "l" is a Label, not a XmCascadeButton`,
		"addTimeOut a1 {}":            `expected integer but got "a1"`,
	} {
		evalErr(t, w, script, want)
	}
	eval(t, w, "scrollbar sb f")
	evalErr(t, w, "scrollbarSetThumb sb 0.5 a1", `expected floating-point number but got "a1"`)
}

func TestPopupPopdownCommands(t *testing.T) {
	w := newTest(t)
	eval(t, w, "transientShell sh topLevel x 300 y 300")
	eval(t, w, "label in sh")
	eval(t, w, "realize")
	eval(t, w, "popup sh")
	if !poppedUp(w.App.WidgetByName("sh")) {
		t.Fatal("popup failed")
	}
	eval(t, w, "popdown sh")
	if poppedUp(w.App.WidgetByName("sh")) {
		t.Fatal("popdown failed")
	}
	eval(t, w, "popup sh exclusive")
	if w.App.Display().GrabbedWindow() != w.App.WidgetByName("sh").Window() {
		t.Error("exclusive grab missing")
	}
	eval(t, w, "popdown sh")
	evalErr(t, w, "popup sh bogus", "bad grab kind")
	eval(t, w, "label plain topLevel")
	evalErr(t, w, "popup plain", "non-shell")
	evalErr(t, w, "popdown plain", "non-shell")
}

func TestCallbackCommandFamily(t *testing.T) {
	w := newTest(t)
	eval(t, w, "command c topLevel")
	if got := eval(t, w, "hasCallbacks c callback"); got != "0" {
		t.Errorf("hasCallbacks = %q", got)
	}
	eval(t, w, `addCallback c callback "echo first"`)
	eval(t, w, `addCallback c callback "echo second"`)
	if got := eval(t, w, "hasCallbacks c callback"); got != "1" {
		t.Errorf("hasCallbacks = %q", got)
	}
	eval(t, w, "callCallbacks c callback")
	if got := output(w); got != "first\nsecond\n" {
		t.Errorf("callCallbacks output = %q", got)
	}
	eval(t, w, "removeAllCallbacks c callback")
	eval(t, w, "callCallbacks c callback")
	if got := output(w); got != "" {
		t.Errorf("callbacks survived removal: %q", got)
	}
	evalErr(t, w, "addCallback c label {echo x}", "no callback resource")
	evalErr(t, w, "addCallback nosuch callback {echo x}", "no widget named")
}

func TestListCommandFamily(t *testing.T) {
	w := newTest(t)
	eval(t, w, `list lst topLevel verticalList true list "a
b
c"`)
	eval(t, w, "realize")
	eval(t, w, "listHighlight lst 1")
	if got := eval(t, w, "listShowCurrent lst cur"); got != "1" {
		t.Errorf("index = %q", got)
	}
	if got := eval(t, w, "set cur"); got != "b" {
		t.Errorf("current = %q", got)
	}
	eval(t, w, "listUnhighlight lst")
	if got := eval(t, w, "listShowCurrent lst cur"); got != "-1" {
		t.Errorf("after unhighlight = %q", got)
	}
	eval(t, w, "listChange lst {x y}")
	if got := eval(t, w, "gV lst list"); got != "x\ny" {
		t.Errorf("list = %q", got)
	}
	evalErr(t, w, "listHighlight lst notanumber", `expected integer but got "notanumber"`)
	eval(t, w, "label notalist topLevel")
	evalErr(t, w, "listHighlight notalist 0", `widget "notalist" is a Label, not a List`)
}

func TestDialogAndScrollbarCommands(t *testing.T) {
	w := newTest(t)
	eval(t, w, "transientShell pop topLevel")
	eval(t, w, `dialog dlg pop label Question value Answer`)
	if got := eval(t, w, "dialogGetValueString dlg"); got != "Answer" {
		t.Errorf("dialog value = %q", got)
	}
	eval(t, w, "scrollbar sb topLevel length 120")
	eval(t, w, "realize")
	eval(t, w, "scrollbarSetThumb sb 0.5 0.25")
	if got := eval(t, w, "gV sb topOfThumb"); got != "0.5" {
		t.Errorf("thumb = %q", got)
	}
	evalErr(t, w, "scrollbarSetThumb sb x y", `expected floating-point number but got "x"`)
	eval(t, w, "stripChart sc topLevel")
	eval(t, w, "stripChartSample sc 4.5")
	eval(t, w, "stripChartSample sc 2.5")
	evalErr(t, w, "stripChartSample sc abc", `expected floating-point number but got "abc"`)
}

// TestGetValuesArrayConvention checks the paper's structure-return
// convention: entries are created in a Tcl associative array.
func TestGetValuesArrayConvention(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label l topLevel label Hello foreground blue width 120")
	if got := eval(t, w, "getValues l info label foreground width"); got != "3" {
		t.Fatalf("count = %q", got)
	}
	if got := eval(t, w, "set info(label)"); got != "Hello" {
		t.Errorf("info(label) = %q", got)
	}
	if got := eval(t, w, "set info(foreground)"); got != "#0000ff" {
		t.Errorf("info(foreground) = %q", got)
	}
	if got := eval(t, w, "set info(width)"); got != "120" {
		t.Errorf("info(width) = %q", got)
	}
	// All 42 resources without an explicit list.
	if got := eval(t, w, "getValues l all"); got != "42" {
		t.Errorf("full dump count = %q", got)
	}
	if got := eval(t, w, "array size all"); got != "42" {
		t.Errorf("array size = %q", got)
	}
	evalErr(t, w, "getValues l arr nosuchres", "no resource")
}

// TestStripChartAutoSampling runs the Xaw-style getValue sampling loop.
func TestStripChartAutoSampling(t *testing.T) {
	w := newTest(t)
	eval(t, w, "set n 0")
	eval(t, w, `stripChart sc topLevel update 1 getValue {incr n}`)
	eval(t, w, "realize")
	eval(t, w, "stripChartStart sc")
	// The first sample fires synchronously.
	if got := eval(t, w, "set n"); got != "1" {
		t.Fatalf("first sample: n = %q", got)
	}
	eval(t, w, "stripChartStop sc")
	evalErr(t, w, "stripChartStop sc", "no strip chart sampler")
	eval(t, w, "stripChart bare topLevel")
	evalErr(t, w, "stripChartStart bare", "no getValue callback")
}

func TestFormAllowResizeCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, "label a f")
	eval(t, w, "formAllowResize f false")
	eval(t, w, "label b f fromVert a label {a very long label that would grow the form}")
	eval(t, w, "realize")
	eval(t, w, "formAllowResize f true")
	evalErr(t, w, "formAllowResize f maybe", "boolean")
	eval(t, w, "label g topLevel")
	evalErr(t, w, "formAllowResize g true", "not a Form")
}

func TestSendKeysAndFocusCommands(t *testing.T) {
	w := newTest(t)
	eval(t, w, "asciiText in topLevel editType edit width 120")
	evalErr(t, w, "sendKeys in hello", "not realized")
	eval(t, w, "realize")
	eval(t, w, "focusWidget in")
	eval(t, w, "sendKeys in {hi there}")
	if got := eval(t, w, "gV in string"); got != "hi there" {
		t.Errorf("typed = %q", got)
	}
	eval(t, w, "sendExpose in")
	eval(t, w, "warpPointer 10 10")
	evalErr(t, w, "warpPointer x y", `expected integer but got "x"`)
	evalErr(t, w, "sendClick in 9", "bad button")
}

func TestWriteImageCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label l topLevel label picture")
	eval(t, w, "realize")
	dir := t.TempDir()
	file := filepath.Join(dir, "out.png")
	eval(t, w, "writeImage topLevel "+file)
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 || string(data[1:4]) != "PNG" {
		t.Errorf("not a PNG: % x", data[:8])
	}
	evalErr(t, w, "writeImage nosuch x.png", "no widget named")
}

func TestTranslateCoordsCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, "form f topLevel")
	eval(t, w, "label a f")
	eval(t, w, "label b f fromVert a")
	eval(t, w, "realize")
	b := w.App.WidgetByName("b")
	got := eval(t, w, "translateCoords b 1 2")
	win, _ := b.Display().Lookup(b.Window())
	rx, ry := win.RootCoords(1, 2)
	want := itoa(rx) + " " + itoa(ry)
	if got != want {
		t.Errorf("translateCoords = %q, want %q", got, want)
	}
	evalErr(t, w, "translateCoords b one two", `expected integer but got "one"`)
	eval(t, w, "label unreal topLevel -unmanaged")
	evalErr(t, w, "translateCoords unreal 0 0", "not realized")
}

func TestSetSensitiveCommand(t *testing.T) {
	w := newTest(t)
	eval(t, w, `command c topLevel callback "echo hit"`)
	eval(t, w, "realize")
	eval(t, w, "setSensitive c false")
	clickOn(t, w, "c")
	if got := output(w); got != "" {
		t.Errorf("insensitive widget fired: %q", got)
	}
	eval(t, w, "setSensitive c true")
	clickOn(t, w, "c")
	if got := output(w); got != "hit\n" {
		t.Errorf("resensitized widget silent: %q", got)
	}
}

func TestTimeoutScriptError(t *testing.T) {
	w := newTest(t)
	eval(t, w, "addTimeOut 1 {nosuchcmd}")
	eval(t, w, "addTimeOut 30 {quit}")
	done := make(chan int, 1)
	go func() { done <- w.App.MainLoop() }()
	<-done
	if got := terminal(w); !strings.Contains(got, "timeout error") {
		t.Errorf("timeout error not reported: %q", got)
	}
}

func TestGetValueOfTranslations(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label l topLevel")
	eval(t, w, `action l replace {<Btn1Down>: exec(echo hi)}`)
	got := eval(t, w, "gV l translations")
	if !strings.Contains(got, "<Btn1Down>: exec(echo hi)") {
		t.Errorf("translations source = %q", got)
	}
}

func TestSnapshotUnrealizedError(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label l topLevel")
	evalErr(t, w, "snapshot", "not realized")
}

func TestCreationOnSecondDisplayIndependence(t *testing.T) {
	w := newTest(t)
	eval(t, w, "label local topLevel label here")
	eval(t, w, "applicationShell far unit-ind-d2:0")
	eval(t, w, "label remote far label there")
	eval(t, w, "realize")
	eval(t, w, "realize far")
	local := w.App.WidgetByName("local")
	remote := w.App.WidgetByName("remote")
	if local.Display() == remote.Display() {
		t.Fatal("widgets share a display")
	}
	// Clicking on one display does not disturb the other.
	clickOn(t, w, "local")
	if !remote.IsRealized() {
		t.Error("remote unrealized by local activity")
	}
}
