package spec

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strings"
	"testing"
)

// paperClassExample is the first specification sample printed in the
// paper.
const paperClassExample = `~widgetClass
XmCascadeButton
#include <Xm/CascadeB.h>
`

// paperFuncExample is the second sample: a two-argument function.
const paperFuncExample = `void
XmCascadeButtonHighlight
in: Widget
in: Boolean
`

func TestParsePaperClassExample(t *testing.T) {
	entries, err := Parse(paperClassExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.Kind != "widgetClass" || e.ClassName != "XmCascadeButton" {
		t.Errorf("entry = %+v", e)
	}
	if len(e.Includes) != 1 || e.Includes[0] != "<Xm/CascadeB.h>" {
		t.Errorf("includes = %v", e.Includes)
	}
	// "The specification ... suffices to provide a mCascadeButton
	// command in Wafe."
	if e.CommandName() != "mCascadeButton" {
		t.Errorf("command = %q", e.CommandName())
	}
}

func TestParsePaperFuncExample(t *testing.T) {
	entries, err := Parse(paperFuncExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.Kind != "function" || e.CName != "XmCascadeButtonHighlight" || e.ReturnType != "void" {
		t.Errorf("entry = %+v", e)
	}
	if len(e.Params) != 2 || e.Params[0].Type != "Widget" || e.Params[1].Type != "Boolean" {
		t.Errorf("params = %+v", e.Params)
	}
	// "The specification below creates the Wafe command
	// mCascadeButtonHighlight with two input arguments."
	if e.CommandName() != "mCascadeButtonHighlight" {
		t.Errorf("command = %q", e.CommandName())
	}
}

func TestParseCommentsAndDocs(t *testing.T) {
	entries, err := Parse(`! a comment block

. Documentation line.
void
XtPopdown
in: Widget
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Doc != "Documentation line." {
		t.Errorf("entries = %+v", entries)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"~widgetClass",                         // missing name
		"void\nXtFoo(\nin: Widget",             // paren in name
		"void\nXtFoo\nsideways: Widget",        // bad direction
		"void\nXtFoo\nin:",                     // empty type
		"~widgetClass\nFoo\nnot-an-include",    // junk in class block
		"void\nXtFoo\nopt: Int a\nin: Int b",   // required after optional
		"void\nXtFoo\nrest: Int a\nopt: Int b", // anything after rest
		"void\nXtFoo\nalias:",                  // empty alias line
		"void\nXtFoo\nusage:",                  // empty usage line
		"void\nXtFoo\nuncheckd",                // misspelt keyword
		"void\nXtFoo\nin: Int a = 1",           // default on a required parameter
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestSignatureRendering covers the format extensions: parameter
// names, opt/rest/out parameters, Option and Subcommand types, alias,
// usage and unchecked lines.
func TestSignatureRendering(t *testing.T) {
	entries, err := Parse(`void
setValues
alias: sV sv
in: Widget widget
rest: String resource value

Cardinal
XtGetResourceList
in: Widget widget
out: StringList varName

String
profileDump
opt: Option -folded
opt: String fileName

String
trace
unchecked
in: Subcommand spans|tree|clear
opt: String arg

void
sendClick
usage: widget ?button? ?x y?
in: Widget widget
opt: Int button
opt: Int x
opt: Int y
`)
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		usage    string
		min, max int
		opts     []string
		subs     []string
		vars     []int
	}
	wants := []want{
		{"setValues widget ?resource value ...?", 1, -1, nil, nil, nil},
		{"getResourceList widget varName", 2, 2, nil, nil, []int{2}},
		{"profileDump ?-folded? ?fileName?", 0, 2, []string{"-folded"}, nil, nil},
		{"trace spans|tree|clear ?arg?", 1, 2, nil, []string{"spans", "tree", "clear"}, nil},
		{"sendClick widget ?button? ?x y?", 1, 4, nil, nil, nil},
	}
	if len(entries) != len(wants) {
		t.Fatalf("entries = %d", len(entries))
	}
	for i, w := range wants {
		e := entries[i]
		min, max := e.Bounds()
		got := want{e.Usage(), min, max, e.Options(), e.Subcommands(), e.VarArgs()}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: got %+v, want %+v", e.CName, got, w)
		}
	}
	if !reflect.DeepEqual(entries[0].Aliases, []string{"sV", "sv"}) {
		t.Errorf("aliases = %v", entries[0].Aliases)
	}
	if entries[2].Unchecked || !entries[3].Unchecked {
		t.Error("unchecked line not recorded")
	}
}

func TestGenerateGoCompilesSyntactically(t *testing.T) {
	entries, err := Parse(paperClassExample + "\n" + paperFuncExample)
	if err != nil {
		t.Fatal(err)
	}
	src, st, err := GenerateGo(entries)
	if err != nil {
		t.Fatal(err)
	}
	if st.WidgetClasses != 1 || st.Functions != 1 {
		t.Errorf("stats = %+v", st)
	}
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, src)
	}
	// One table row: the metadata with bounds, usage text and argument
	// types, and the trampoline running the command, which converts
	// the Boolean before it calls the method.
	for _, want := range []string{
		`{tcl.CommandMeta{Name: "mCascadeButtonHighlight", MinArgs: 2, MaxArgs: 2, Usage: "mCascadeButtonHighlight widget boolean", ArgTypes: []string{"Widget", "Boolean"}}, (*Wafe).cmdMCascadeButtonHighlight},`,
		"a2, err := tcl.ParseBool(argv[2])",
		`return "", w.mCascadeButtonHighlight(a1, a2)`,
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code lacks %s:\n%s", want, src)
		}
	}
}

// TestTrampolineConversions checks the code generated for each kind of
// parameter and result, and that a type with no conversion is refused.
func TestTrampolineConversions(t *testing.T) {
	entries, err := Parse(`~widgetClass
List

Int
listShow
in: List widget
out: String varName
opt: Int index
opt: Boolean resize = true

void
pairs
in: Widget widget
rest: String resource value

String
dump
opt: Option -folded
opt: String fileName
`)
	if err != nil {
		t.Fatal(err)
	}
	src, _, err := GenerateGo(entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`a1, err := w.widgetOf(argv[1], "List")`,
		"var a3 *int\n\tif len(argv) > 3 {\n\t\tv, err := tcl.ParseInt(argv[3])",
		`a4, err := tcl.ParseBool(optArg(argv, 4, "true"))`,
		"r, o2, err := w.listShow(a1, a3, a4)",
		"if err := w.Interp.SetVar(argv[2], o2); err != nil {",
		"return strconv.Itoa(r), nil",
		"if (len(argv)-2)%2 != 0 {",
		`return "", w.pairs(a1, argv[2:])`,
		"return w.dump(argv[1:])",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code lacks %q:\n%s", want, src)
		}
	}
	bad, err := Parse("void\nbad\nin: Integer n\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := GenerateGo(bad); err == nil {
		t.Error("a parameter type with no conversion was accepted")
	}
}

func TestFullSpecFile(t *testing.T) {
	data, err := os.ReadFile("../../specs/wafe.spec")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := Parse(string(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 100 {
		t.Errorf("spec has only %d entries", len(entries))
	}
	src, _, err := GenerateGo(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Every function and alias gets a row; widget classes get none.
	for _, e := range entries {
		if e.Kind != "function" {
			continue
		}
		for _, name := range append([]string{e.CommandName()}, e.Aliases...) {
			if !strings.Contains(src, fmt.Sprintf("{Name: %q,", name)) {
				t.Errorf("generated table has no row for %s", name)
			}
		}
	}
	// Spot-check naming-rule outputs from the paper.
	for _, want := range []string{"destroyWidget", "formAllowResize", "mCommandAppendValue", "toggle", "mCascadeButton", "asciiText"} {
		found := false
		for _, e := range entries {
			if e.CommandName() == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("spec missing command %q", want)
		}
	}
}

func TestGenerateReference(t *testing.T) {
	entries, _ := Parse(paperClassExample + "\n" + paperFuncExample)
	ref := GenerateReference(entries)
	if !strings.Contains(ref, "mCascadeButton             create an instance of XmCascadeButton") {
		t.Errorf("reference missing creation command:\n%s", ref)
	}
	if !strings.Contains(ref, "mCascadeButtonHighlight widget boolean") {
		t.Errorf("reference missing function:\n%s", ref)
	}
	tex := GenerateTeX(entries)
	if !strings.Contains(tex, "\\section*{Wafe Short Reference}") {
		t.Error("TeX preamble missing")
	}
	if !strings.Contains(tex, "XmCascadeButtonHighlight") {
		t.Error("TeX body missing function")
	}
}

func TestNamingRuleAgreement(t *testing.T) {
	// The one copy of the naming rule, which internal/core's creation
	// commands also use, checked on the documented examples.
	cases := map[string]string{
		"XtDestroyWidget":      "destroyWidget",
		"XawFormAllowResize":   "formAllowResize",
		"XmCommandAppendValue": "mCommandAppendValue",
	}
	for in, want := range cases {
		if got := CommandName(in); got != want {
			t.Errorf("commandName(%q) = %q, want %q", in, got, want)
		}
	}
}
