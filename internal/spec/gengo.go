package spec

import (
	"fmt"
	"go/format"
	"strings"
)

// GenerateGo emits internal/core's command table: one row per function
// entry and alias, holding the command's tcl.CommandMeta (bounds,
// usage text, option words, subcommands, output-variable positions)
// and the hand-written method implementing it, named "cmd" plus the
// command name with its first letter upper-cased. Core registers every
// row; the interpreter then rejects a call outside a row's bounds with
// its usage text before the method runs. This is the division of
// labour of the original Perl generator, which produced "the necessary
// C code for conversion, argument passing, error messages ... and
// registrations of commands" around hand-written functions; argument
// conversion stays in the methods here, whose messages are specific to
// each command. The output is gofmt'd.
func GenerateGo(entries []Entry) (string, Stats, error) {
	var b strings.Builder
	st := Stats{Entries: len(entries)}
	b.WriteString(`// Code generated by wafegen from specs/wafe.spec. DO NOT EDIT.

package core

import "wafe/internal/tcl"

// commandTable lists every fixed Wafe command with the metadata the
// interpreter enforces and wafecheck reads, and the method that
// implements it.
var commandTable = [...]struct {
	meta tcl.CommandMeta
	run  func(*Wafe, []string) (string, error)
}{
`)
	for _, e := range entries {
		if e.Kind == "widgetClass" {
			st.WidgetClasses++
			continue
		}
		st.Functions++
		method := "(*Wafe).cmd" + strings.ToUpper(e.CommandName()[:1]) + e.CommandName()[1:]
		for _, name := range append([]string{e.CommandName()}, e.Aliases...) {
			fmt.Fprintf(&b, "{%s, %s},\n", goMeta(&e, name), method)
		}
	}
	b.WriteString("}\n")
	src, err := format.Source([]byte(b.String()))
	if err != nil {
		return "", st, fmt.Errorf("spec: formatting generated Go: %v", err)
	}
	st.GeneratedLines = strings.Count(string(src), "\n")
	return string(src), st, nil
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
	return s + "}"
}
