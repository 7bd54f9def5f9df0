package spec

import (
	"fmt"
	"go/format"
	"strings"

	"wafe/internal/tcl"
)

// converters maps each parameter type a trampoline converts to the Go
// type the method receives and the function that converts the word;
// that function's error is the command's error. A parameter typed
// with a widget class of the spec converts like Widget and must name
// a widget of that class or a subclass.
var converters = map[string]struct{ goType, fn string }{
	"Widget":     {"*xt.Widget", "w.widgetArg"},
	"Int":        {"int", "tcl.ParseInt"},
	"Float":      {"float64", "tcl.ParseFloat"},
	"Boolean":    {"bool", "tcl.ParseBool"},
	"StringList": {"[]string", "tcl.ParseList"},
	"GrabKind":   {"xt.GrabKind", "xt.ParseGrabKind"},
}

// CheckWord converts a literal word for a parameter of type typ with
// the function the trampolines call for it, and returns its error; a
// type that converts no literal (a widget, a string) returns nil.
// wafecheck reports a literal argument through it, so the static
// finding and the run-time error cannot disagree.
func CheckWord(typ, word string) error {
	var err error
	switch typ {
	case "Int":
		_, err = tcl.ParseInt(word)
	case "Float":
		_, err = tcl.ParseFloat(word)
	case "Boolean":
		_, err = tcl.ParseBool(word)
	}
	return err
}

// givenTypes reach the method as the word itself.
var givenTypes = map[string]bool{"String": true, "Script": true, "Array": true, "VarName": true}

// results maps each return and out type to the expression that
// renders the method's value as the command's result.
var results = map[string]string{
	"String":     "%s",
	"Boolean":    "boolResult(%s)",
	"Int":        "strconv.Itoa(%s)",
	"Cardinal":   "strconv.Itoa(%s)",
	"StringList": "tcl.FormatList(%s)",
	"Widget":     "widgetName(%s)",
}

// GenerateGo emits internal/core's command layer: one table row per
// function entry and alias, holding the command's tcl.CommandMeta
// (bounds, usage text, option words, subcommands, output-variable
// positions and argument types), and one trampoline per entry that
// converts argv by parameter type, calls the hand-written method named
// like the command with the converted values and renders its result.
// Core registers every row; the interpreter rejects a call outside a
// row's bounds with its usage text before the trampoline runs. This is
// the division of labour of the original Perl generator, which
// produced "the necessary C code for conversion, argument passing,
// error messages ... and registrations of commands" around
// hand-written functions. The output is gofmt'd.
func GenerateGo(entries []Entry) (string, Stats, error) {
	st := Stats{Entries: len(entries)}
	classes := map[string]bool{}
	for _, e := range entries {
		if e.Kind == "widgetClass" {
			classes[e.ClassName] = true
		}
	}
	var rows, funcs strings.Builder
	for _, e := range entries {
		if e.Kind == "widgetClass" {
			st.WidgetClasses++
			continue
		}
		st.Functions++
		name := "cmd" + strings.ToUpper(e.CommandName()[:1]) + e.CommandName()[1:]
		for _, cmd := range append([]string{e.CommandName()}, e.Aliases...) {
			fmt.Fprintf(&rows, "{%s, (*Wafe).%s},\n", goMeta(&e, cmd), name)
		}
		if err := trampoline(&funcs, &e, name, classes); err != nil {
			return "", st, err
		}
	}
	imports := `"wafe/internal/tcl"`
	for _, pkg := range []string{"strconv", "wafe/internal/xt"} {
		if strings.Contains(funcs.String(), pkg[strings.LastIndex(pkg, "/")+1:]+".") {
			imports += "\n" + fmt.Sprintf("%q", pkg)
		}
	}
	src := fmt.Sprintf(`// Code generated by wafegen from specs/wafe.spec. DO NOT EDIT.

package core

import (
%s
)

// commandTable lists every fixed Wafe command with the metadata the
// interpreter enforces and wafecheck reads, and the trampoline that
// runs it.
var commandTable = [...]struct {
	meta tcl.CommandMeta
	run  func(*Wafe, []string) (string, error)
}{
%s}
%s`, imports, rows.String(), funcs.String())
	out, err := format.Source([]byte(src))
	if err != nil {
		return "", st, fmt.Errorf("spec: formatting generated Go: %v", err)
	}
	st.GeneratedLines = strings.Count(string(out), "\n")
	return string(out), st, nil
}

// trampoline emits the function that converts one entry's arguments
// and calls its method. Argument i becomes a<i>. An opt parameter with
// a default converts the default when the call omits it; one without
// reaches the method as nil (a pointer to the value for a scalar). A
// rest parameter, and an Option or Subcommand parameter with all that
// follows it, reach the method as the slice of remaining words. An out
// parameter is a further result of the method, which the trampoline
// stores in the variable the argument names.
func trampoline(b *strings.Builder, e *Entry, name string, classes map[string]bool) error {
	fmt.Fprintf(b, "\nfunc (w *Wafe) %s(argv []string) (string, error) {\n", name)
	var args, outs []string
	min, _ := e.Bounds()
	// A rest parameter named with two words takes them in pairs.
	if n := len(e.Params); n > 0 && e.Params[n-1].Dir == "rest" && strings.Contains(e.Params[n-1].word(), " ") {
		fmt.Fprintf(b, "if (len(argv)-%d)%%2 != 0 {\nreturn \"\", tcl.NewError(%q, %q)\n}\n", n, `wrong # args: should be "%s"`, e.Usage())
	}
params:
	for i, p := range e.Params {
		pos, v := i+1, fmt.Sprintf("a%d", i+1)
		word := fmt.Sprintf("argv[%d]", pos)
		if p.Default != "" {
			word = fmt.Sprintf("optArg(argv, %d, %q)", pos, p.Default)
		}
		conv, isConv := converters[p.Type]
		if classes[p.Type] {
			conv, isConv = converters["Widget"], true
			conv.fn = fmt.Sprintf("w.widgetOf(%%s, %q)", p.Type)
		} else if isConv {
			conv.fn += "(%s)"
		}
		switch {
		case p.Dir == "out":
			if _, ok := results[p.Type]; !ok {
				return fmt.Errorf("spec: %s: out parameter of type %s has no rendering", e.CName, p.Type)
			}
			outs = append(outs, fmt.Sprintf("o%d", pos))
			continue
		case p.Type == "Option" || p.Type == "Subcommand" || (p.Dir == "rest" && givenTypes[p.Type]):
			if pos > min+1 {
				args = append(args, fmt.Sprintf("argv[min(%d, len(argv)):]", pos))
			} else {
				args = append(args, fmt.Sprintf("argv[%d:]", pos))
			}
			if p.Dir != "rest" {
				break params
			}
		case p.Dir == "rest" || (!isConv && !givenTypes[p.Type]):
			return fmt.Errorf("spec: %s: no conversion for %s parameter of type %s", e.CName, p.Dir, p.Type)
		case p.Dir == "opt" && p.Default == "":
			if !isConv {
				conv = struct{ goType, fn string }{"string", "%s"}
			}
			ref := ""
			if !strings.HasPrefix(conv.goType, "*") && !strings.HasPrefix(conv.goType, "[]") {
				conv.goType, ref = "*"+conv.goType, "&"
			}
			fmt.Fprintf(b, "var %s %s\nif len(argv) > %d {\n", v, conv.goType, pos)
			if isConv {
				fmt.Fprintf(b, "v, err := %s\nif err != nil {\nreturn \"\", err\n}\n", fmt.Sprintf(conv.fn, word))
			} else {
				fmt.Fprintf(b, "v := %s\n", word)
			}
			fmt.Fprintf(b, "%s = %sv\n}\n", v, ref)
			args = append(args, v)
		case isConv:
			fmt.Fprintf(b, "%s, err := %s\nif err != nil {\nreturn \"\", err\n}\n", v, fmt.Sprintf(conv.fn, word))
			args = append(args, v)
		default:
			args = append(args, word)
		}
	}
	call := fmt.Sprintf("w.%s(%s)", e.CommandName(), strings.Join(args, ", "))
	ret, hasRet := results[e.ReturnType]
	switch {
	case !hasRet && e.ReturnType != "void":
		return fmt.Errorf("spec: %s: return type %s has no rendering", e.CName, e.ReturnType)
	case len(outs) == 0 && !hasRet:
		fmt.Fprintf(b, "return \"\", %s\n}\n", call)
		return nil
	case len(outs) == 0 && e.ReturnType == "String":
		fmt.Fprintf(b, "return %s\n}\n", call)
		return nil
	}
	vals := outs
	if hasRet {
		vals = append([]string{"r"}, outs...)
	}
	fmt.Fprintf(b, "%s := %s\nif err != nil {\nreturn \"\", err\n}\n", strings.Join(append(vals, "err"), ", "), call)
	for i, p := range e.Params {
		if p.Dir == "out" {
			fmt.Fprintf(b, "if err := w.Interp.SetVar(argv[%d], %s); err != nil {\nreturn \"\", err\n}\n", i+1, fmt.Sprintf(results[p.Type], fmt.Sprintf("o%d", i+1)))
		}
	}
	result := `""`
	if hasRet {
		result = fmt.Sprintf(ret, "r")
	}
	fmt.Fprintf(b, "return %s, nil\n}\n", result)
	return nil
}

// goMeta renders the tcl.CommandMeta literal for one command name of
// an entry; an alias shares the entry's usage text.
func goMeta(e *Entry, name string) string {
	min, max := e.Bounds()
	s := fmt.Sprintf("tcl.CommandMeta{Name: %q, MinArgs: %d, MaxArgs: %d", name, min, max)
	if !e.Unchecked {
		s += fmt.Sprintf(", Usage: %q", e.Usage())
	}
	if opts := e.Options(); opts != nil {
		s += fmt.Sprintf(", Options: %#v", opts)
	}
	if subs := e.Subcommands(); subs != nil {
		s += fmt.Sprintf(", Subcommands: %#v", subs)
	}
	if vars := e.VarArgs(); vars != nil {
		s += fmt.Sprintf(", VarArgs: %#v", vars)
	}
	if types := e.ArgTypes(); types != nil {
		s += fmt.Sprintf(", ArgTypes: %#v", types)
	}
	return s + "}"
}
