package tcl

import "sort"

// CommandMeta describes the call shape of a registered command: its
// argument-count bounds, option words and ensemble subcommands, plus
// which argument positions are scripts, expressions or output
// variables. RegisterCommand callers populate it with SetCommandMeta;
// the wafecheck linter (internal/analysis) reads the table to check
// scripts statically, and commands that set Usage get their arity
// enforced centrally with the standard "wrong # args" message.
//
// All counts and indexes refer to arguments after the command name:
// MinArgs/MaxArgs bound len(argv)-1, and index 1 is the first
// argument.
type CommandMeta struct {
	Name string

	// MinArgs and MaxArgs bound the argument count; MaxArgs < 0 means
	// unlimited.
	MinArgs int
	MaxArgs int

	// Usage, when non-empty, turns on central arity enforcement: a
	// call outside the bounds fails with
	//   wrong # args: should be "<Usage>"
	// before the command function runs, which then checks only what
	// depends on a subcommand or an option word.
	Usage string

	// Options lists the literal "-flag" words the command accepts.
	Options []string

	// Subcommands lists valid first-argument subcommand names for
	// ensemble commands (string, info, array, file).
	Subcommands []string

	// ScriptArgs lists argument indexes that the command evaluates as
	// scripts (loop and conditional bodies, catch/time bodies).
	ScriptArgs []int

	// ExprArgs lists argument indexes that the command evaluates as
	// expressions (expr operands, loop conditions).
	ExprArgs []int

	// VarArgs lists argument indexes that name a variable the command
	// WRITES (catch's ?varName?, gets's ?varName?), so a static
	// checker knows the variable is defined afterwards.
	VarArgs []int

	// ArgTypes lists the spec type of each argument in order (Widget,
	// Int, Boolean, ...; a rest parameter's type once), for the
	// commands wafegen generates; wafecheck converts a literal
	// argument of a scalar type as the command would.
	ArgTypes []string
}

// SetCommandMeta records metadata for a command. When meta.Usage is
// non-empty and the command is registered, its implementation is
// wrapped so that calls outside the MinArgs/MaxArgs bounds fail with
// the standard message before the command runs — embedders get
// uniform "wrong # args" reporting without writing the check by hand.
func (in *Interp) SetCommandMeta(meta CommandMeta) {
	if in.metas == nil {
		in.metas = make(map[string]CommandMeta)
	}
	in.metas[meta.Name] = meta
	if meta.Usage == "" {
		return
	}
	if fn, ok := in.commands[meta.Name]; ok {
		in.commands[meta.Name] = enforceArity(meta, fn)
	}
}

func enforceArity(meta CommandMeta, fn CommandFunc) CommandFunc {
	return func(in *Interp, argv []string) (string, error) {
		n := len(argv) - 1
		if n < meta.MinArgs || (meta.MaxArgs >= 0 && n > meta.MaxArgs) {
			return "", NewError("wrong # args: should be \"%s\"", meta.Usage)
		}
		return fn(in, argv)
	}
}

// CommandMetas returns all recorded metadata entries sorted by name.
func (in *Interp) CommandMetas() []CommandMeta {
	out := make([]CommandMeta, 0, len(in.metas))
	for _, m := range in.metas {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// builtinMetas describes the standard command set registered by New.
// A row's bounds are the only top-level arity check of its builtin:
// the interpreter enforces them with the row's usage text, and
// wafecheck reads the same row. Four rows have no usage text: echo,
// list and concat take any number of arguments and so stay unwrapped,
// and if reports Tcl's own positional messages ("no script following
// ...").
var builtinMetas = []CommandMeta{
	{Name: "set", MinArgs: 1, MaxArgs: 2, Usage: "set varName ?newValue?"},
	{Name: "unset", MinArgs: 1, MaxArgs: -1, Usage: "unset varName ?varName ...?"},
	{Name: "incr", MinArgs: 1, MaxArgs: 2, Usage: "incr varName ?increment?", VarArgs: []int{1}},
	{Name: "append", MinArgs: 1, MaxArgs: -1, Usage: "append varName ?value value ...?", VarArgs: []int{1}},
	{Name: "expr", MinArgs: 1, MaxArgs: -1, Usage: "expr arg ?arg ...?", ExprArgs: []int{1}},
	{Name: "if", MinArgs: 2, MaxArgs: -1},
	{Name: "while", MinArgs: 2, MaxArgs: 2, Usage: "while test command", ExprArgs: []int{1}, ScriptArgs: []int{2}},
	{Name: "for", MinArgs: 4, MaxArgs: 4, Usage: "for start test next command", ExprArgs: []int{2}, ScriptArgs: []int{1, 3, 4}},
	{Name: "foreach", MinArgs: 3, MaxArgs: 3, Usage: "foreach varName list command", VarArgs: []int{1}, ScriptArgs: []int{3}},
	{Name: "switch", MinArgs: 2, MaxArgs: -1, Usage: "switch ?options? string pattern body ... ?default body?", Options: []string{"-exact", "-glob", "-regexp", "--"}},
	{Name: "break", MinArgs: 0, MaxArgs: 0, Usage: "break"},
	{Name: "continue", MinArgs: 0, MaxArgs: 0, Usage: "continue"},
	{Name: "return", MinArgs: 0, MaxArgs: 1, Usage: "return ?value?"},
	{Name: "proc", MinArgs: 3, MaxArgs: 3, Usage: "proc name args body"},
	{Name: "error", MinArgs: 1, MaxArgs: 3, Usage: "error message ?errorInfo? ?errorCode?"},
	{Name: "catch", MinArgs: 1, MaxArgs: 2, Usage: "catch command ?varName?", ScriptArgs: []int{1}, VarArgs: []int{2}},
	{Name: "eval", MinArgs: 1, MaxArgs: -1, Usage: "eval arg ?arg ...?"},
	{Name: "subst", MinArgs: 1, MaxArgs: 1, Usage: "subst string"},
	{Name: "global", MinArgs: 1, MaxArgs: -1, Usage: "global varName ?varName ...?"},
	{Name: "upvar", MinArgs: 2, MaxArgs: -1, Usage: "upvar ?level? otherVar localVar ?otherVar localVar ...?"},
	{Name: "uplevel", MinArgs: 1, MaxArgs: -1, Usage: "uplevel ?level? command ?arg ...?"},
	{Name: "rename", MinArgs: 2, MaxArgs: 2, Usage: "rename oldName newName"},
	{Name: "info", MinArgs: 1, MaxArgs: -1, Usage: "info option ?arg ...?",
		Subcommands: []string{"exists", "commands", "procs", "vars", "locals", "globals", "level", "body", "args", "tclversion"}},
	{Name: "array", MinArgs: 2, MaxArgs: -1, Usage: "array option arrayName ?arg ...?",
		Subcommands: []string{"exists", "size", "names", "get", "set", "unset"}},
	{Name: "puts", MinArgs: 1, MaxArgs: 3, Usage: "puts ?-nonewline? ?fileId? string", Options: []string{"-nonewline"}},
	{Name: "source", MinArgs: 1, MaxArgs: 1, Usage: "source fileName"},
	{Name: "time", MinArgs: 1, MaxArgs: 2, Usage: "time command ?count?", ScriptArgs: []int{1}},
	{Name: "list", MinArgs: 0, MaxArgs: -1},
	{Name: "concat", MinArgs: 0, MaxArgs: -1},
	{Name: "lindex", MinArgs: 2, MaxArgs: 2, Usage: "lindex list index"},
	{Name: "llength", MinArgs: 1, MaxArgs: 1, Usage: "llength list"},
	{Name: "lappend", MinArgs: 1, MaxArgs: -1, Usage: "lappend varName ?value value ...?", VarArgs: []int{1}},
	{Name: "lrange", MinArgs: 3, MaxArgs: 3, Usage: "lrange list first last"},
	{Name: "linsert", MinArgs: 3, MaxArgs: -1, Usage: "linsert list index element ?element ...?"},
	{Name: "lreplace", MinArgs: 3, MaxArgs: -1, Usage: "lreplace list first last ?element ...?"},
	{Name: "lsearch", MinArgs: 2, MaxArgs: 3, Usage: "lsearch ?mode? list pattern", Options: []string{"-exact", "-glob", "-regexp"}},
	{Name: "lsort", MinArgs: 1, MaxArgs: -1, Usage: "lsort ?options? list",
		Options: []string{"-ascii", "-integer", "-real", "-dictionary", "-increasing", "-decreasing", "-command"}},
	{Name: "lreverse", MinArgs: 1, MaxArgs: 1, Usage: "lreverse list"},
	{Name: "string", MinArgs: 2, MaxArgs: -1, Usage: "string option arg ?arg ...?",
		Subcommands: []string{"length", "tolower", "toupper", "trim", "trimleft", "trimright", "index", "range", "compare", "match", "first", "last", "repeat", "reverse"}},
	{Name: "format", MinArgs: 1, MaxArgs: -1, Usage: "format formatString ?arg ...?"},
	{Name: "scan", MinArgs: 3, MaxArgs: -1, Usage: "scan string format varName ?varName ...?"},
	{Name: "regexp", MinArgs: 2, MaxArgs: -1, Usage: "regexp ?switches? exp string ?matchVar? ?subMatchVar ...?", Options: []string{"-nocase", "-indices", "--"}},
	{Name: "regsub", MinArgs: 4, MaxArgs: -1, Usage: "regsub ?switches? exp string subSpec varName", Options: []string{"-nocase", "-all", "--"}, VarArgs: []int{4}},
	{Name: "split", MinArgs: 1, MaxArgs: 2, Usage: "split string ?splitChars?"},
	{Name: "join", MinArgs: 1, MaxArgs: 2, Usage: "join list ?joinString?"},
	{Name: "glob", MinArgs: 1, MaxArgs: -1, Usage: "glob ?-nocomplain? pattern ?pattern ...?", Options: []string{"-nocomplain"}},
	{Name: "cd", MinArgs: 1, MaxArgs: 1, Usage: "cd dirName"},
	{Name: "pwd", MinArgs: 0, MaxArgs: 0, Usage: "pwd"},
	{Name: "open", MinArgs: 1, MaxArgs: 2, Usage: "open fileName ?access?"},
	{Name: "close", MinArgs: 1, MaxArgs: 1, Usage: "close fileId"},
	{Name: "gets", MinArgs: 1, MaxArgs: 2, Usage: "gets fileId ?varName?", VarArgs: []int{2}},
	{Name: "read", MinArgs: 1, MaxArgs: 2, Usage: "read fileId ?numBytes?"},
	{Name: "eof", MinArgs: 1, MaxArgs: 1, Usage: "eof fileId"},
	{Name: "flush", MinArgs: 1, MaxArgs: 1, Usage: "flush fileId"},
	{Name: "file", MinArgs: 2, MaxArgs: -1, Usage: "file option name ?arg ...?",
		Subcommands: []string{"exists", "isfile", "isdirectory", "size", "dirname", "tail", "rootname", "extension", "readable", "writable"}},
	{Name: "exec", MinArgs: 1, MaxArgs: -1, Usage: "exec command ?arg ...?"},
	{Name: "case", MinArgs: 2, MaxArgs: -1, Usage: "case string ?in? patList body ?patList body ...?"},
	{Name: "pid", MinArgs: 0, MaxArgs: 0, Usage: "pid"},
	{Name: "echo", MinArgs: 0, MaxArgs: -1},
	{Name: "exit", MinArgs: 0, MaxArgs: 1, Usage: "exit ?returnCode?"},
}

func registerBuiltinMetas(in *Interp) {
	for _, m := range builtinMetas {
		in.SetCommandMeta(m)
	}
}
