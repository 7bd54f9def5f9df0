package tcl

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

func arityError(name, usage string) error {
	return NewError("wrong # args: should be \"%s %s\"", name, usage)
}

func registerCoreCommands(in *Interp) {
	in.RegisterCommand("set", cmdSet)
	in.RegisterCommand("unset", cmdUnset)
	in.RegisterCommand("incr", cmdIncr)
	in.RegisterCommand("append", cmdAppend)
	in.RegisterCommand("expr", cmdExpr)
	in.RegisterCommand("if", cmdIf)
	in.RegisterCommand("while", cmdWhile)
	in.RegisterCommand("for", cmdFor)
	in.RegisterCommand("foreach", cmdForeach)
	in.RegisterCommand("switch", cmdSwitch)
	in.RegisterCommand("break", cmdBreak)
	in.RegisterCommand("continue", cmdContinue)
	in.RegisterCommand("return", cmdReturn)
	in.RegisterCommand("proc", cmdProc)
	in.RegisterCommand("error", cmdError)
	in.RegisterCommand("catch", cmdCatch)
	in.RegisterCommand("eval", cmdEval)
	in.RegisterCommand("subst", cmdSubst)
	in.RegisterCommand("global", cmdGlobal)
	in.RegisterCommand("upvar", cmdUpvar)
	in.RegisterCommand("uplevel", cmdUplevel)
	in.RegisterCommand("rename", cmdRename)
	in.RegisterCommand("info", cmdInfo)
	in.RegisterCommand("array", cmdArray)
	in.RegisterCommand("puts", cmdPuts)
	in.RegisterCommand("echo", cmdEcho)
	in.RegisterCommand("source", cmdSource)
	in.RegisterCommand("time", cmdTime)
	in.RegisterCommand("pid", cmdPid)
	in.RegisterCommand("exit", cmdExit)
}

func cmdSet(in *Interp, argv []string) (string, error) {
	if len(argv) == 2 {
		return in.GetVar(argv[1])
	}
	if err := in.SetVar(argv[1], argv[2]); err != nil {
		return "", err
	}
	return argv[2], nil
}

func cmdUnset(in *Interp, argv []string) (string, error) {
	for _, name := range argv[1:] {
		if err := in.UnsetVar(name); err != nil {
			return "", err
		}
	}
	return "", nil
}

func cmdIncr(in *Interp, argv []string) (string, error) {
	delta := int64(1)
	if len(argv) == 3 {
		// Like the stored value, the increment tolerates surrounding
		// whitespace and an explicit leading '+' (Tcl trims both; the
		// oracle sweep caught the increment being parsed untrimmed).
		d, err := strconv.ParseInt(strings.TrimSpace(argv[2]), 0, 64)
		if err != nil {
			return "", NewError("expected integer but got %q", argv[2])
		}
		delta = d
	}
	v, err := in.incrVar(argv[1], delta)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

func cmdAppend(in *Interp, argv []string) (string, error) {
	cur := ""
	if in.VarExists(argv[1]) {
		s, err := in.GetVar(argv[1])
		if err != nil {
			return "", err
		}
		cur = s
	}
	cur += strings.Join(argv[2:], "")
	if err := in.SetVar(argv[1], cur); err != nil {
		return "", err
	}
	return cur, nil
}

func cmdExpr(in *Interp, argv []string) (string, error) {
	return in.ExprEval(strings.Join(argv[1:], " "))
}

func cmdIf(in *Interp, argv []string) (string, error) {
	i := 1
	for {
		if i >= len(argv) {
			return "", NewError("wrong # args: no expression after \"if\"")
		}
		cond := argv[i]
		i++
		if i < len(argv) && argv[i] == "then" {
			i++
		}
		if i >= len(argv) {
			return "", NewError("wrong # args: no script following %q argument", cond)
		}
		body := argv[i]
		i++
		ok, err := in.ExprBool(cond)
		if err != nil {
			return "", err
		}
		if ok {
			return in.Eval(body)
		}
		if i >= len(argv) {
			return "", nil
		}
		switch argv[i] {
		case "elseif":
			i++
			continue
		case "else":
			i++
			if i >= len(argv) {
				return "", NewError("wrong # args: no script following \"else\" argument")
			}
			return in.Eval(argv[i])
		default:
			// Implicit else body.
			return in.Eval(argv[i])
		}
	}
}

func cmdWhile(in *Interp, argv []string) (string, error) {
	body := in.compileCached(argv[2])
	for {
		ok, err := in.ExprBool(argv[1])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		_, err = in.EvalScript(body)
		if err != nil {
			var te *Error
			if asTclError(err, &te) {
				if te.Code == CodeBreak {
					return "", nil
				}
				if te.Code == CodeContinue {
					continue
				}
			}
			return "", err
		}
	}
}

func cmdFor(in *Interp, argv []string) (string, error) {
	if _, err := in.Eval(argv[1]); err != nil {
		return "", err
	}
	body := in.compileCached(argv[4])
	next := in.compileCached(argv[3])
	for {
		ok, err := in.ExprBool(argv[2])
		if err != nil {
			return "", err
		}
		if !ok {
			return "", nil
		}
		_, err = in.EvalScript(body)
		if err != nil {
			var te *Error
			if asTclError(err, &te) {
				if te.Code == CodeBreak {
					return "", nil
				}
				if te.Code != CodeContinue {
					return "", err
				}
			} else {
				return "", err
			}
		}
		if _, err := in.EvalScript(next); err != nil {
			// Tcl treats a break in the next script as loop
			// termination (Tcl_ForObjCmd); only continue and real
			// errors propagate. The oracle sweep caught break being
			// passed through raw.
			var te *Error
			if asTclError(err, &te) && te.Code == CodeBreak {
				return "", nil
			}
			return "", err
		}
	}
}

func cmdForeach(in *Interp, argv []string) (string, error) {
	vars, err := ParseList(argv[1])
	if err != nil {
		return "", err
	}
	if len(vars) == 0 {
		return "", NewError("foreach varlist is empty")
	}
	items, err := ParseList(argv[2])
	if err != nil {
		return "", err
	}
	body := in.compileCached(argv[3])
	for i := 0; i < len(items); i += len(vars) {
		for j, v := range vars {
			val := ""
			if i+j < len(items) {
				val = items[i+j]
			}
			if err := in.SetVar(v, val); err != nil {
				return "", err
			}
		}
		_, err := in.EvalScript(body)
		if err != nil {
			var te *Error
			if asTclError(err, &te) {
				if te.Code == CodeBreak {
					return "", nil
				}
				if te.Code == CodeContinue {
					continue
				}
			}
			return "", err
		}
	}
	return "", nil
}

func cmdSwitch(in *Interp, argv []string) (string, error) {
	mode := "-exact"
	i := 1
	for i < len(argv) && strings.HasPrefix(argv[i], "-") {
		switch argv[i] {
		case "-exact", "-glob", "-regexp":
			mode = argv[i]
			i++
		case "--":
			i++
			goto parsed
		default:
			return "", NewError("bad switch option %q", argv[i])
		}
	}
parsed:
	if i >= len(argv) {
		return "", arityError("switch", "?options? string pattern body ... ?default body?")
	}
	subject := argv[i]
	i++
	var pairs []string
	if len(argv)-i == 1 {
		list, err := ParseList(argv[i])
		if err != nil {
			return "", err
		}
		pairs = list
	} else {
		pairs = argv[i:]
	}
	if len(pairs)%2 != 0 {
		return "", NewError("extra switch pattern with no body")
	}
	for k := 0; k < len(pairs); k += 2 {
		pat, body := pairs[k], pairs[k+1]
		matched := false
		if pat == "default" && k == len(pairs)-2 {
			matched = true
		} else {
			switch mode {
			case "-exact":
				matched = subject == pat
			case "-glob":
				matched = GlobMatch(pat, subject)
			case "-regexp":
				m, err := regexpMatch(pat, subject)
				if err != nil {
					return "", err
				}
				matched = m
			}
		}
		if matched {
			// Fall through bodies marked "-".
			for body == "-" && k+3 < len(pairs) {
				k += 2
				body = pairs[k+1]
			}
			if body == "-" {
				return "", NewError("no body specified for pattern %q", pat)
			}
			return in.Eval(body)
		}
	}
	return "", nil
}

func cmdBreak(in *Interp, argv []string) (string, error) {
	return "", errBreak
}

func cmdContinue(in *Interp, argv []string) (string, error) {
	return "", errContinue
}

func cmdReturn(in *Interp, argv []string) (string, error) {
	val := ""
	if len(argv) == 2 {
		val = argv[1]
	}
	return "", &Error{Code: CodeReturn, Value: val}
}

func cmdProc(in *Interp, argv []string) (string, error) {
	name := argv[1]
	formals, err := ParseList(argv[2])
	if err != nil {
		return "", err
	}
	p := &Proc{Name: name, Body: argv[3]}
	for _, f := range formals {
		parts, err := ParseList(f)
		if err != nil {
			return "", err
		}
		switch len(parts) {
		case 1:
			p.Args = append(p.Args, ProcArg{Name: parts[0]})
		case 2:
			p.Args = append(p.Args, ProcArg{Name: parts[0], Default: parts[1], HasDefault: true})
		default:
			return "", NewError("too many fields in argument specifier %q", f)
		}
	}
	in.procs[name] = p
	in.RegisterCommand(name, func(in *Interp, argv []string) (string, error) {
		return in.callProc(p, argv)
	})
	return "", nil
}

// cmdError raises its message. As in Tcl, a non-empty errorInfo word
// begins the traceback, leaving out the error command's own line, and
// an errorCode word sets errorCode.
func cmdError(in *Interp, argv []string) (string, error) {
	// As in Tcl 8.6, a non-empty info word begins the traceback in
	// place of the error command's own line; without one the
	// traceback begins with that line. A top-level error command
	// writes its line here, so the top level does not add it again.
	info := argv[1] + "\n    while executing\n\"" + FormatList(argv) + "\""
	if len(argv) > 2 && argv[2] != "" {
		info = argv[2]
	}
	_ = in.SetGlobalVar("errorInfo", info)
	in.errorUnwinding, in.errorLogged = true, in.nesting == 1
	code := "NONE"
	if len(argv) > 3 {
		code = argv[3]
	}
	_ = in.SetGlobalVar("errorCode", code)
	return "", NewError("%s", argv[1])
}

func cmdCatch(in *Interp, argv []string) (string, error) {
	res, err := in.Eval(argv[1])
	code := CodeOK
	if err != nil {
		var te *Error
		if asTclError(err, &te) {
			code = te.Code
			res = te.Value
		} else {
			code = CodeError
			res = err.Error()
		}
		// The error is handled; the next one starts a new traceback.
		in.errorUnwinding = false
	}
	if len(argv) == 3 {
		if err := in.SetVar(argv[2], res); err != nil {
			return "", err
		}
	}
	return strconv.Itoa(int(code)), nil
}

func cmdEval(in *Interp, argv []string) (string, error) {
	return in.Eval(strings.Join(argv[1:], " "))
}

func cmdSubst(in *Interp, argv []string) (string, error) {
	return in.Subst(argv[1])
}

func cmdGlobal(in *Interp, argv []string) (string, error) {
	if in.Level() == 0 {
		return "", nil // global at global level is a no-op
	}
	for _, name := range argv[1:] {
		if err := in.linkVar(in.globalFrame(), name, name); err != nil {
			return "", err
		}
	}
	return "", nil
}

func (in *Interp) frameAt(spec string) (*frame, error) {
	level := in.Level()
	target := level - 1
	if spec != "" {
		if strings.HasPrefix(spec, "#") {
			n, err := strconv.Atoi(spec[1:])
			if err != nil {
				return nil, NewError("bad level %q", spec)
			}
			target = n
		} else {
			n, err := strconv.Atoi(spec)
			if err != nil {
				return nil, NewError("bad level %q", spec)
			}
			target = level - n
		}
	}
	if target < 0 || target > level {
		return nil, NewError("bad level %q", spec)
	}
	return in.frames[target], nil
}

func cmdUpvar(in *Interp, argv []string) (string, error) {
	rest := argv[1:]
	levelSpec := ""
	if len(rest)%2 == 1 {
		levelSpec = rest[0]
		rest = rest[1:]
	}
	f, err := in.frameAt(levelSpec)
	if err != nil {
		return "", err
	}
	for i := 0; i+1 < len(rest); i += 2 {
		if err := in.linkVar(f, rest[i], rest[i+1]); err != nil {
			return "", err
		}
	}
	return "", nil
}

func cmdUplevel(in *Interp, argv []string) (string, error) {
	rest := argv[1:]
	levelSpec := ""
	if len(rest) > 1 {
		c := rest[0]
		if strings.HasPrefix(c, "#") || isAllDigits(c) {
			levelSpec = c
			rest = rest[1:]
		}
	}
	f, err := in.frameAt(levelSpec)
	if err != nil {
		return "", err
	}
	// Temporarily truncate the frame stack to the target level.
	idx := -1
	for i, fr := range in.frames {
		if fr == f {
			idx = i
			break
		}
	}
	// The truncated stack must not share the saved slice's backing
	// array: a proc call during the uplevel would append over the
	// saved frames, so restoring would resurrect the wrong (and, with
	// frame pooling, already recycled) frame. The full-slice
	// expression forces appends to copy.
	saved := in.frames
	in.frames = in.frames[: idx+1 : idx+1]
	defer func() { in.frames = saved }()
	return in.Eval(strings.Join(rest, " "))
}

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func cmdRename(in *Interp, argv []string) (string, error) {
	old, nw := argv[1], argv[2]
	fn, ok := in.commands[old]
	if !ok {
		return "", NewError("can't rename %q: command doesn't exist", old)
	}
	// rename edits the command table directly, so it must invalidate
	// the bytecode engine's inline dispatch caches (and the
	// specialized-opcode guard) itself.
	in.cmdGen++
	if isSpecializedName(old) || isSpecializedName(nw) {
		in.specialGen++
	}
	if nw == "" {
		delete(in.commands, old)
		delete(in.procs, old)
		return "", nil
	}
	in.commands[nw] = fn
	if p, ok := in.procs[old]; ok {
		in.procs[nw] = p
		delete(in.procs, old)
	}
	delete(in.commands, old)
	return "", nil
}

func cmdInfo(in *Interp, argv []string) (string, error) {
	switch argv[1] {
	case "exists":
		if len(argv) != 3 {
			return "", arityError("info exists", "varName")
		}
		if in.VarExists(argv[2]) {
			return "1", nil
		}
		return "0", nil
	case "commands":
		names := in.CommandNames()
		if len(argv) == 3 {
			var out []string
			for _, n := range names {
				if GlobMatch(argv[2], n) {
					out = append(out, n)
				}
			}
			names = out
		}
		return FormatList(names), nil
	case "procs":
		var names []string
		for n := range in.procs {
			if len(argv) == 3 && !GlobMatch(argv[2], n) {
				continue
			}
			names = append(names, n)
		}
		sort.Strings(names)
		return FormatList(names), nil
	case "vars", "locals", "globals":
		f := in.currentFrame()
		if argv[1] == "globals" {
			f = in.globalFrame()
		}
		var names []string
		for _, n := range f.varNames() {
			if len(argv) == 3 && !GlobMatch(argv[2], n) {
				continue
			}
			names = append(names, n)
		}
		sort.Strings(names)
		return FormatList(names), nil
	case "level":
		if len(argv) == 2 {
			return strconv.Itoa(in.Level()), nil
		}
		return "", NewError("info level with argument not supported")
	case "body":
		if len(argv) != 3 {
			return "", arityError("info body", "procName")
		}
		p, ok := in.procs[argv[2]]
		if !ok {
			return "", NewError("%q isn't a procedure", argv[2])
		}
		return p.Body, nil
	case "args":
		if len(argv) != 3 {
			return "", arityError("info args", "procName")
		}
		p, ok := in.procs[argv[2]]
		if !ok {
			return "", NewError("%q isn't a procedure", argv[2])
		}
		var names []string
		for _, a := range p.Args {
			names = append(names, a.Name)
		}
		return FormatList(names), nil
	case "tclversion":
		return "6.7", nil // the vintage Wafe was built against
	}
	return "", NewError("bad info option %q", argv[1])
}

func cmdArray(in *Interp, argv []string) (string, error) {
	op, name := argv[1], argv[2]
	switch op {
	case "exists":
		_, ok := in.arrayVar(name)
		if ok {
			return "1", nil
		}
		return "0", nil
	case "size":
		v, ok := in.arrayVar(name)
		if !ok {
			return "0", nil
		}
		return strconv.Itoa(len(v.arr)), nil
	case "names":
		v, ok := in.arrayVar(name)
		if !ok {
			return "", nil
		}
		var names []string
		for k := range v.arr {
			if len(argv) == 4 && !GlobMatch(argv[3], k) {
				continue
			}
			names = append(names, k)
		}
		sort.Strings(names)
		return FormatList(names), nil
	case "get":
		v, ok := in.arrayVar(name)
		if !ok {
			return "", nil
		}
		var keys []string
		for k := range v.arr {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var out []string
		for _, k := range keys {
			out = append(out, k, v.arr[k])
		}
		return FormatList(out), nil
	case "set":
		if len(argv) != 4 {
			return "", arityError("array set", "arrayName list")
		}
		items, err := ParseList(argv[3])
		if err != nil {
			return "", err
		}
		if len(items)%2 != 0 {
			return "", NewError("list must have an even number of elements")
		}
		for i := 0; i+1 < len(items); i += 2 {
			if err := in.SetVar(name+"("+items[i]+")", items[i+1]); err != nil {
				return "", err
			}
		}
		return "", nil
	case "unset":
		if _, ok := in.arrayVar(name); ok {
			in.currentFrame().bind(name, nil)
		}
		return "", nil
	}
	return "", NewError("bad array option %q", op)
}

func cmdPuts(in *Interp, argv []string) (string, error) {
	args := argv[1:]
	newline := true
	if len(args) > 0 && args[0] == "-nonewline" {
		newline = false
		args = args[1:]
	}
	switch len(args) {
	case 1:
		in.Stdout(args[0])
		return "", nil
	case 2:
		if args[0] == "stdout" || args[0] == "stderr" {
			in.Stdout(args[1])
			return "", nil
		}
		ch, err := in.lookupChannel(args[0])
		if err != nil {
			return "", err
		}
		if ch.w == nil {
			return "", NewError("channel %q not opened for writing", args[0])
		}
		if _, err := ch.w.WriteString(args[1]); err != nil {
			return "", NewError("write %q: %v", args[0], err)
		}
		if newline {
			if err := ch.w.WriteByte('\n'); err != nil {
				return "", NewError("write %q: %v", args[0], err)
			}
		}
		return "", nil
	}
	return "", arityError("puts", "?-nonewline? ?fileId? string")
}

// cmdEcho is Wafe's echo: joins its arguments with spaces and prints.
func cmdEcho(in *Interp, argv []string) (string, error) {
	in.Stdout(strings.Join(argv[1:], " "))
	return "", nil
}

func cmdSource(in *Interp, argv []string) (string, error) {
	data, err := os.ReadFile(argv[1])
	if err != nil {
		return "", NewError("couldn't read file %q: %v", argv[1], err)
	}
	return in.Eval(string(data))
}

func cmdTime(in *Interp, argv []string) (string, error) {
	count := 1
	if len(argv) == 3 {
		c, err := strconv.Atoi(argv[2])
		if err != nil || c <= 0 {
			return "", NewError("expected positive integer but got %q", argv[2])
		}
		count = c
	}
	body := in.compileCached(argv[1])
	start := time.Now()
	for i := 0; i < count; i++ {
		if _, err := in.EvalScript(body); err != nil {
			return "", err
		}
	}
	per := time.Since(start).Microseconds() / int64(count)
	return fmt.Sprintf("%d microseconds per iteration", per), nil
}

func cmdPid(in *Interp, argv []string) (string, error) {
	return strconv.Itoa(os.Getpid()), nil
}

func cmdExit(in *Interp, argv []string) (string, error) {
	code := "0"
	if len(argv) == 2 {
		if _, err := ParseInt(argv[1]); err != nil {
			return "", err
		}
		code = argv[1]
	}
	return "", &Error{Code: CodeExit, Value: code}
}
