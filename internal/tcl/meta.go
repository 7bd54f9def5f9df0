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
	// before the command function runs. Commands that produce custom
	// messages leave Usage empty and keep their own checks.
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
// Bounds mirror each implementation's own arity check (Usage stays
// empty — the builtins keep their historical messages); the table
// exists for wafecheck and for introspection.
var builtinMetas = []CommandMeta{
	{Name: "set", MinArgs: 1, MaxArgs: 2},
	{Name: "unset", MinArgs: 1, MaxArgs: -1},
	{Name: "incr", MinArgs: 1, MaxArgs: 2, VarArgs: []int{1}},
	{Name: "append", MinArgs: 1, MaxArgs: -1, VarArgs: []int{1}},
	{Name: "expr", MinArgs: 1, MaxArgs: -1, ExprArgs: []int{1}},
	{Name: "if", MinArgs: 2, MaxArgs: -1},
	{Name: "while", MinArgs: 2, MaxArgs: 2, ExprArgs: []int{1}, ScriptArgs: []int{2}},
	{Name: "for", MinArgs: 4, MaxArgs: 4, ExprArgs: []int{2}, ScriptArgs: []int{1, 3, 4}},
	{Name: "foreach", MinArgs: 3, MaxArgs: 3, VarArgs: []int{1}, ScriptArgs: []int{3}},
	{Name: "switch", MinArgs: 2, MaxArgs: -1, Options: []string{"-exact", "-glob", "-regexp", "--"}},
	{Name: "break", MinArgs: 0, MaxArgs: 0},
	{Name: "continue", MinArgs: 0, MaxArgs: 0},
	{Name: "return", MinArgs: 0, MaxArgs: 1},
	{Name: "proc", MinArgs: 3, MaxArgs: 3},
	{Name: "error", MinArgs: 1, MaxArgs: 2},
	{Name: "catch", MinArgs: 1, MaxArgs: 2, ScriptArgs: []int{1}, VarArgs: []int{2}},
	{Name: "eval", MinArgs: 1, MaxArgs: -1},
	{Name: "subst", MinArgs: 1, MaxArgs: 1},
	{Name: "global", MinArgs: 1, MaxArgs: -1},
	{Name: "upvar", MinArgs: 2, MaxArgs: -1},
	{Name: "uplevel", MinArgs: 1, MaxArgs: -1},
	{Name: "rename", MinArgs: 2, MaxArgs: 2},
	{Name: "info", MinArgs: 1, MaxArgs: -1,
		Subcommands: []string{"exists", "commands", "procs", "vars", "locals", "globals", "level", "body", "args", "tclversion"}},
	{Name: "array", MinArgs: 2, MaxArgs: -1,
		Subcommands: []string{"exists", "size", "names", "get", "set", "unset"}},
	{Name: "puts", MinArgs: 1, MaxArgs: 3, Options: []string{"-nonewline"}},
	{Name: "source", MinArgs: 1, MaxArgs: 1},
	{Name: "time", MinArgs: 1, MaxArgs: 2, ScriptArgs: []int{1}},
	{Name: "list", MinArgs: 0, MaxArgs: -1},
	{Name: "concat", MinArgs: 0, MaxArgs: -1},
	{Name: "lindex", MinArgs: 2, MaxArgs: 2},
	{Name: "llength", MinArgs: 1, MaxArgs: 1},
	{Name: "lappend", MinArgs: 1, MaxArgs: -1, VarArgs: []int{1}},
	{Name: "lrange", MinArgs: 3, MaxArgs: 3},
	{Name: "linsert", MinArgs: 3, MaxArgs: -1},
	{Name: "lreplace", MinArgs: 3, MaxArgs: -1},
	{Name: "lsearch", MinArgs: 2, MaxArgs: 3, Options: []string{"-exact", "-glob", "-regexp"}},
	{Name: "lsort", MinArgs: 1, MaxArgs: -1,
		Options: []string{"-ascii", "-integer", "-real", "-dictionary", "-increasing", "-decreasing", "-command"}},
	{Name: "lreverse", MinArgs: 1, MaxArgs: 1},
	{Name: "string", MinArgs: 2, MaxArgs: -1,
		Subcommands: []string{"length", "tolower", "toupper", "trim", "trimleft", "trimright", "index", "range", "compare", "match", "first", "last", "repeat", "reverse"}},
	{Name: "format", MinArgs: 1, MaxArgs: -1},
	{Name: "scan", MinArgs: 3, MaxArgs: -1},
	{Name: "regexp", MinArgs: 2, MaxArgs: -1, Options: []string{"-nocase", "-indices", "--"}},
	{Name: "regsub", MinArgs: 4, MaxArgs: -1, Options: []string{"-nocase", "-all", "--"}, VarArgs: []int{4}},
	{Name: "split", MinArgs: 1, MaxArgs: 2},
	{Name: "join", MinArgs: 1, MaxArgs: 2},
	{Name: "glob", MinArgs: 1, MaxArgs: -1, Options: []string{"-nocomplain"}},
	{Name: "cd", MinArgs: 0, MaxArgs: 1},
	{Name: "pwd", MinArgs: 0, MaxArgs: 0},
	{Name: "open", MinArgs: 1, MaxArgs: 2},
	{Name: "close", MinArgs: 1, MaxArgs: 1},
	{Name: "gets", MinArgs: 1, MaxArgs: 2, VarArgs: []int{2}},
	{Name: "read", MinArgs: 1, MaxArgs: 2},
	{Name: "eof", MinArgs: 1, MaxArgs: 1},
	{Name: "flush", MinArgs: 1, MaxArgs: 1},
	{Name: "file", MinArgs: 2, MaxArgs: -1,
		Subcommands: []string{"exists", "isfile", "isdirectory", "size", "dirname", "tail", "rootname", "extension", "readable", "writable"}},
	{Name: "exec", MinArgs: 1, MaxArgs: -1},
	{Name: "case", MinArgs: 2, MaxArgs: -1},
	{Name: "pid", MinArgs: 0, MaxArgs: 0},
	{Name: "echo", MinArgs: 0, MaxArgs: -1},
	{Name: "exit", MinArgs: 0, MaxArgs: 1},
}

func registerBuiltinMetas(in *Interp) {
	for _, m := range builtinMetas {
		in.SetCommandMeta(m)
	}
}
