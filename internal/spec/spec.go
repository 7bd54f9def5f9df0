// Package spec implements Wafe's code generator: it parses the high-
// level specification language shown in the paper and emits (a) the Go
// table through which internal/core registers its commands, with their
// argument bounds, usage texts, option words, subcommands and output
// variables, and (b) the short reference guide (plain text and TeX). In
// the original system this generator was a Perl program producing about
// 60 % of Wafe's 13 000 lines of C.
package spec

import (
	"fmt"
	"strings"
)

// Entry is one specification unit: a widget class or a function.
type Entry struct {
	// Kind is "widgetClass" or "function".
	Kind string

	// Widget-class entries (paper example: "~widgetClass\nXmCascadeButton\n#include <Xm/CascadeB.h>").
	ClassName string
	Includes  []string

	// Function entries (paper example: "void\nXmCascadeButtonHighlight\nin: Widget\nin: Boolean").
	ReturnType string
	CName      string
	Params     []Param
	// Aliases are further command names bound to the same
	// implementation; they share its bounds and usage text.
	Aliases []string
	// UsageArgs, when set, replaces the argument part of the usage text
	// rendered from Params, for shapes the parameters cannot express.
	UsageArgs string
	// Unchecked leaves the bounds to the implementation: they are
	// recorded for wafecheck but the interpreter does not enforce them.
	Unchecked bool

	// Doc is an optional comment attached with leading "." lines.
	Doc string
}

// Param is one typed parameter.
type Param struct {
	// Dir is "in" (required), "opt" (optional), "rest" (any number of
	// further arguments) or "out" (the name of a variable the command
	// writes).
	Dir string
	// Type is Widget, Boolean, Int, String, Script, ...; two types
	// shape the command: Option is a literal option word, and
	// Subcommand names the "|"-separated subcommands.
	Type string
	// Name is the word the usage text shows; it defaults to the
	// lower-cased type, or "varName" for an out parameter.
	Name string
	// Default is the word an omitted opt parameter takes ("= word"
	// after the name); without one the method receives nil.
	Default string
}

func (p Param) word() string {
	switch {
	case p.Name != "":
		return p.Name
	case p.Dir == "out":
		return "varName"
	}
	return strings.ToLower(p.Type)
}

// CommandName derives the Wafe command name for the entry using the
// paper's naming rule.
func (e *Entry) CommandName() string {
	if e.Kind == "widgetClass" {
		return CreationCommandName(e.ClassName)
	}
	return CommandName(e.CName)
}

// CommandName derives the Wafe command name from an Xt/Xaw/Xm/Xlib
// function name. The paper: "the prefix Xt, Xaw or X is stripped and
// the first letter of the remaining string is translated to lower
// case", while Xm functions keep an "m" prefix:
//
//	XtDestroyWidget      → destroyWidget
//	XawFormAllowResize   → formAllowResize
//	XmCommandAppendValue → mCommandAppendValue
//
// A name without one of these prefixes is lower-cased the same way, so
// a Wafe command with no toolkit counterpart is specified by its own
// name.
func CommandName(cName string) string {
	for _, p := range []string{"Xaw", "Xt", "Xm", "X"} {
		rest, ok := strings.CutPrefix(cName, p)
		// The character after the prefix must be upper case, otherwise
		// the "prefix" is part of the name itself.
		if !ok || rest == "" || rest[0] < 'A' || rest[0] > 'Z' {
			continue
		}
		if p == "Xm" {
			return "m" + rest
		}
		return lowerFirst(rest)
	}
	return lowerFirst(cName)
}

// CreationCommandName derives the widget-creation command from a class
// name: Toggle → toggle, AsciiText → asciiText, XmCascadeButton →
// mCascadeButton.
func CreationCommandName(className string) string {
	if rest, ok := strings.CutPrefix(className, "Xm"); ok && rest != "" {
		return "m" + rest
	}
	return lowerFirst(className)
}

// CreationUsageArgs is the argument part of every creation command's
// usage text.
const CreationUsageArgs = "name father ?-unmanaged? ?resource value ...?"

func lowerFirst(s string) string {
	if s == "" || s[0] < 'A' || s[0] > 'Z' {
		return s
	}
	return string(s[0]+'a'-'A') + s[1:]
}

// Bounds returns the argument-count bounds of a function entry; max is
// -1 when a rest parameter accepts any number of further arguments.
func (e *Entry) Bounds() (min, max int) {
	for _, p := range e.Params {
		switch p.Dir {
		case "in", "out":
			min++
			max++
		case "opt":
			max++
		case "rest":
			return min, -1
		}
	}
	return min, max
}

// Usage returns a function entry's usage text: the command name and
// its arguments.
func (e *Entry) Usage() string {
	args := e.UsageArgs
	if args == "" {
		words := make([]string, len(e.Params))
		for i, p := range e.Params {
			switch p.Dir {
			case "opt":
				words[i] = "?" + p.word() + "?"
			case "rest":
				words[i] = "?" + p.word() + " ...?"
			default:
				words[i] = p.word()
			}
		}
		args = strings.Join(words, " ")
	}
	return strings.TrimSpace(e.CommandName() + " " + args)
}

// Options returns the literal option words (parameters of type Option).
func (e *Entry) Options() []string {
	var opts []string
	for _, p := range e.Params {
		if p.Type == "Option" {
			opts = append(opts, p.word())
		}
	}
	return opts
}

// Subcommands returns the subcommand names of an ensemble command.
func (e *Entry) Subcommands() []string {
	for _, p := range e.Params {
		if p.Type == "Subcommand" {
			return strings.Split(p.word(), "|")
		}
	}
	return nil
}

// ArgTypes returns the spec type of each parameter in order; an out
// parameter's argument is a variable name, typed VarName.
func (e *Entry) ArgTypes() []string {
	var types []string
	for _, p := range e.Params {
		if p.Dir == "out" {
			types = append(types, "VarName")
		} else {
			types = append(types, p.Type)
		}
	}
	return types
}

// VarArgs returns the 1-based positions of the out parameters.
func (e *Entry) VarArgs() []int {
	var pos []int
	for i, p := range e.Params {
		if p.Dir == "out" {
			pos = append(pos, i+1)
		}
	}
	return pos
}

// Parse reads a specification file. Entries are separated by blank
// lines. A unit starting with "~widgetClass" declares a widget class;
// a unit whose first line is a C type declares a function. Lines
// starting with "!" are comments; lines starting with "." attach
// documentation to the following entry.
func Parse(src string) ([]Entry, error) {
	var entries []Entry
	blocks := splitBlocks(src)
	for _, block := range blocks {
		e, err := parseBlock(block)
		if err != nil {
			return nil, err
		}
		if e != nil {
			entries = append(entries, *e)
		}
	}
	return entries, nil
}

func splitBlocks(src string) [][]string {
	var blocks [][]string
	var cur []string
	for _, raw := range strings.Split(src, "\n") {
		line := strings.TrimRight(raw, " \t")
		if strings.TrimSpace(line) == "" {
			if len(cur) > 0 {
				blocks = append(blocks, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, line)
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks
}

func parseBlock(lines []string) (*Entry, error) {
	var doc []string
	i := 0
	for i < len(lines) {
		l := strings.TrimSpace(lines[i])
		switch {
		case strings.HasPrefix(l, "!"):
			i++
		case strings.HasPrefix(l, "."):
			doc = append(doc, strings.TrimSpace(strings.TrimPrefix(l, ".")))
			i++
		default:
			goto body
		}
	}
	return nil, nil // comment-only block
body:
	rest := lines[i:]
	e := &Entry{Doc: strings.Join(doc, " ")}
	if strings.TrimSpace(rest[0]) == "~widgetClass" {
		e.Kind = "widgetClass"
		if len(rest) < 2 {
			return nil, fmt.Errorf("spec: ~widgetClass without class name")
		}
		e.ClassName = strings.TrimSpace(rest[1])
		if e.ClassName == "" || strings.ContainsAny(e.ClassName, " \t") {
			return nil, fmt.Errorf("spec: bad widget class name %q", rest[1])
		}
		for _, l := range rest[2:] {
			t := strings.TrimSpace(l)
			if strings.HasPrefix(t, "#include") {
				e.Includes = append(e.Includes, strings.TrimSpace(strings.TrimPrefix(t, "#include")))
			} else {
				return nil, fmt.Errorf("spec: unexpected line %q in widgetClass block", l)
			}
		}
		return e, nil
	}
	// Function block: return type, C name, then parameter and
	// attribute lines.
	e.Kind = "function"
	e.ReturnType = strings.TrimSpace(rest[0])
	if len(rest) < 2 {
		return nil, fmt.Errorf("spec: function block %q missing name", rest[0])
	}
	e.CName = strings.TrimSpace(rest[1])
	if e.CName == "" || strings.ContainsAny(e.CName, " \t(") {
		return nil, fmt.Errorf("spec: bad function name %q", rest[1])
	}
	for _, l := range rest[2:] {
		if err := e.parseLine(strings.TrimSpace(l)); err != nil {
			return nil, fmt.Errorf("spec: %v in %s", err, e.CName)
		}
	}
	return e, nil
}

// parseLine reads one line of a function block after the name.
func (e *Entry) parseLine(t string) error {
	if t == "unchecked" {
		e.Unchecked = true
		return nil
	}
	key, val, ok := strings.Cut(t, ":")
	if !ok {
		return fmt.Errorf("bad parameter line %q", t)
	}
	key, val = strings.TrimSpace(key), strings.TrimSpace(val)
	switch key {
	case "alias":
		if val == "" {
			return fmt.Errorf("empty alias line")
		}
		e.Aliases = append(e.Aliases, strings.Fields(val)...)
		return nil
	case "usage":
		if val == "" {
			return fmt.Errorf("empty usage line")
		}
		e.UsageArgs = val
		return nil
	case "in", "opt", "rest", "out":
	default:
		return fmt.Errorf("bad parameter direction %q", key)
	}
	typ, name, _ := strings.Cut(val, " ")
	if typ == "" {
		return fmt.Errorf("empty parameter type")
	}
	if n := len(e.Params); n > 0 {
		prev := e.Params[n-1].Dir
		if prev == "rest" || (prev == "opt" && key != "opt" && key != "rest") {
			return fmt.Errorf("%s parameter after %s parameter", key, prev)
		}
	}
	name, def, _ := strings.Cut(name, "=")
	if def != "" && key != "opt" {
		return fmt.Errorf("default on %s parameter", key)
	}
	e.Params = append(e.Params, Param{Dir: key, Type: typ, Name: strings.TrimSpace(name), Default: strings.TrimSpace(def)})
	return nil
}

// Stats summarizes generation output for the paper's "about 60 % of
// the code is generated" measurement.
type Stats struct {
	Entries        int
	WidgetClasses  int
	Functions      int
	GeneratedLines int
}
