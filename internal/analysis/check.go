package analysis

import (
	"fmt"
	"strconv"
	"strings"

	"wafe/internal/core"
	"wafe/internal/spec"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

// Checker lints .wafe scripts against a command Table.
type Checker struct {
	T *Table
	// Extra names accepted as commands in every checked script, for
	// commands the embedding program registers at runtime (the file
	// frontend adds getChannel and setCommunicationVariable, say).
	Extra []string
}

func NewChecker(t *Table) *Checker { return &Checker{T: t} }

// procInfo is a proc definition discovered in the file.
type procInfo struct {
	min, max int // arg bounds; max -1 when the proc takes "args"
}

// widgetInfo tracks a widget created by a literal creation command, so
// resource names can be validated against the exact class.
type widgetInfo struct {
	class  *xt.Class
	parent *xt.Class // class of the father widget, nil when unknown
}

// fileCheck is the per-file state of one CheckScript run.
type fileCheck struct {
	c       *Checker
	file    string
	src     string
	at      func(off int) (line, col int)
	diags   []Diagnostic
	ignores map[int]map[string]bool // line → suppressed rules ("all" wildcard)
	procs   map[string]procInfo
	extra   map[string]bool // commands introduced by rename / RegisterCommand
	widgets map[string]widgetInfo
	// wholeFile is true when src is the complete checked file (not a
	// script embedded in a host program); whole-file-only rules like
	// unusedproc key off it.
	wholeFile bool
}

// posFn maps a byte offset in some script source to an absolute
// line/column in the checked file. Nested scripts get exact mappings
// when their source is a verbatim slice of the file; percent-expanded
// scripts fall back to the position of the enclosing word.
type posFn func(off int) (line, col int)

// subFn builds an exact posFn for a nested source slice beginning at
// the given offset of the current script's source; nil when positions
// inside nested scripts cannot be mapped exactly.
type subFn func(base int) posFn

// varTracker is the straight-line variable state. checkReads is true
// only where execution is unconditional and immediate; conditional
// bodies still record definitions (so later straight-line reads are
// not false positives) but never flag reads.
type varTracker struct {
	defined    map[string]bool
	checkReads bool
}

// bodyTrack derives the tracker for a conditionally-executed body:
// same definition set, reads unchecked.
func bodyTrack(t *varTracker) *varTracker {
	if t == nil {
		return nil
	}
	if !t.checkReads {
		return t
	}
	return &varTracker{defined: t.defined, checkReads: false}
}

// Known percent-code sets for contexts not covered by the exported
// core constants; each mirrors the expansion its registration command
// performs.
const (
	rddSourcePercentCodes = "w%"
	rddTargetPercentCodes = "wvxy%"
	selectionPercentCodes = "t%"
)

// CheckScript lints one script and returns its findings sorted by
// position. file is used in diagnostics only.
func (c *Checker) CheckScript(file, src string) []Diagnostic {
	return c.CheckEmbedded(file, src, nil, nil)
}

// CheckEmbedded lints a script whose source is embedded in another
// file. at maps a byte offset within src to the absolute line/column
// in file (nil means src IS the file); extra names additional
// commands the embedding program registers.
func (c *Checker) CheckEmbedded(file, src string, at func(off int) (line, col int), extra []string) []Diagnostic {
	wholeFile := at == nil
	if at == nil {
		at = func(off int) (int, int) { return tcl.LineCol(src, off) }
	}
	f := &fileCheck{
		wholeFile: wholeFile,
		c:         c,
		file:      file,
		src:       src,
		at:        at,
		ignores:   scanIgnores(src, at),
		procs:     make(map[string]procInfo),
		extra:     make(map[string]bool),
		widgets:   map[string]widgetInfo{"topLevel": {class: c.T.TopLevelClass}},
	}
	f.addCommands(c.Extra)
	f.addCommands(extra)
	return f.run(src)
}

// addCommands marks extra names as known commands (used when a host
// program registers application commands via RegisterCommand).
func (f *fileCheck) addCommands(names []string) {
	for _, n := range names {
		f.extra[n] = true
	}
}

func (f *fileCheck) run(src string) []Diagnostic {
	script, _ := tcl.Compile(src)
	f.collectProcs(script, 0)
	exact := func(base int) posFn {
		return func(off int) (int, int) { return f.at(base + off) }
	}
	track := &varTracker{defined: predefinedVars(), checkReads: true}
	f.walk(script, exact(0), exact, track)
	f.dataflow(script)
	f.diags = filterIgnored(f.diags, f.ignores)
	SortDiagnostics(f.diags)
	return f.diags
}

func predefinedVars() map[string]bool {
	return map[string]bool{"argv": true, "argc": true, "argv0": true, "errorInfo": true, "env": true}
}

// scanIgnores finds "# wafecheck:ignore rule..." comment directives.
// A directive suppresses the named rules (or all of them, with "all")
// on its own line and on the next non-empty line. Line keys are
// absolute file lines (mapped through at for embedded scripts).
func scanIgnores(src string, at func(off int) (line, col int)) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	lines := strings.Split(src, "\n")
	starts := make([]int, len(lines))
	off := 0
	for i, line := range lines {
		starts[i] = off
		off += len(line) + 1
	}
	fileLine := func(i int) int {
		l, _ := at(starts[i])
		return l
	}
	for i, line := range lines {
		idx := strings.Index(line, "# wafecheck:ignore")
		if idx < 0 {
			continue
		}
		rules := strings.Fields(line[idx+len("# wafecheck:ignore"):])
		if len(rules) == 0 {
			rules = []string{"all"}
		}
		apply := func(ln int) {
			if out[ln] == nil {
				out[ln] = make(map[string]bool)
			}
			for _, r := range rules {
				out[ln][r] = true
			}
		}
		apply(fileLine(i))
		for j := i + 1; j < len(lines); j++ {
			if strings.TrimSpace(lines[j]) != "" {
				apply(fileLine(j))
				break
			}
		}
	}
	return out
}

func filterIgnored(ds []Diagnostic, ignores map[int]map[string]bool) []Diagnostic {
	out := ds[:0]
	for _, d := range ds {
		if set := ignores[d.Line]; set != nil && (set["all"] || set[d.Rule]) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func (f *fileCheck) report(pos posFn, off int, rule, format string, args ...any) {
	line, col := pos(off)
	f.diags = append(f.diags, Diagnostic{
		File: f.file, Line: line, Col: col, Rule: rule,
		Msg: fmt.Sprintf(format, args...),
	})
}

// collectProcs pre-scans every reachable braced word for proc
// definitions and renames, so forward references and callback scripts
// resolve. depth bounds pathological nesting.
func (f *fileCheck) collectProcs(s *tcl.Script, depth int) {
	if s == nil || depth > 20 {
		return
	}
	for _, cmd := range s.Commands() {
		if len(cmd.Words) == 0 {
			continue
		}
		if name, ok := cmd.Words[0].Literal(); ok {
			switch name {
			case "proc":
				if len(cmd.Words) == 4 {
					pname, ok1 := cmd.Words[1].Literal()
					formals, ok2 := cmd.Words[2].Literal()
					if ok1 && ok2 {
						f.procs[pname] = procArity(formals)
					}
				}
			case "rename":
				if len(cmd.Words) == 3 {
					if newName, ok := cmd.Words[2].Literal(); ok {
						f.extra[newName] = true
					}
				}
			}
		}
		for _, w := range cmd.Words {
			if w.Form != '{' {
				continue
			}
			lit, ok := w.Literal()
			if !ok || !strings.Contains(lit, "proc") && !strings.Contains(lit, "rename") {
				continue
			}
			sub, _ := tcl.Compile(lit)
			f.collectProcs(sub, depth+1)
		}
	}
}

// procArity derives argument bounds from a proc's formal list.
func procArity(formals string) procInfo {
	items, err := tcl.ParseList(formals)
	if err != nil {
		return procInfo{min: 0, max: -1}
	}
	info := procInfo{}
	for i, it := range items {
		if it == "args" && i == len(items)-1 {
			info.max = -1
			return info
		}
		parts, perr := tcl.ParseList(it)
		if perr == nil && len(parts) >= 2 {
			continue // defaulted formal: optional
		}
		info.min++
	}
	info.max = len(items)
	return info
}

// walk checks one script: parse errors, unreachable code, and every
// command.
func (f *fileCheck) walk(s *tcl.Script, pos posFn, sub subFn, track *varTracker) {
	if s == nil {
		return
	}
	if msg, _, _, ok := s.ParseErrorInfo(); ok {
		f.report(pos, parseErrOffset(s), "parse", "%s", msg)
	}
	reachable := true
	for _, cmd := range s.Commands() {
		if len(cmd.Words) == 0 {
			continue
		}
		if !reachable {
			f.report(pos, cmd.Pos, "unreachable", "unreachable command: control never reaches past the previous command")
			reachable = true // report once per script, keep checking
		}
		f.checkCommand(cmd, pos, sub, track)
		if name, ok := cmd.Words[0].Literal(); ok {
			switch name {
			case "return", "break", "continue", "exit":
				reachable = false
			case "error":
				if len(cmd.Words) >= 2 {
					reachable = false
				}
			}
		}
	}
}

// parseErrOffset recovers the byte offset of a script's parse error
// from its recorded line/column.
func parseErrOffset(s *tcl.Script) int {
	_, line, col, ok := s.ParseErrorInfo()
	if !ok {
		return 0
	}
	off := 0
	for l := 1; l < line; l++ {
		i := strings.IndexByte(s.Source[off:], '\n')
		if i < 0 {
			break
		}
		off += i + 1
	}
	return off + col - 1
}

// checkCommand applies every rule to a single command.
func (f *fileCheck) checkCommand(cmd tcl.CommandView, pos posFn, sub subFn, track *varTracker) {
	// Variable reads and nested [command] parts are checked for every
	// word, even when the command name itself is dynamic.
	for _, w := range cmd.Words {
		f.checkWordParts(w, pos, sub, track)
	}

	name, ok := cmd.Words[0].Literal()
	if !ok {
		return
	}
	nargs := len(cmd.Words) - 1

	if pi, isProc := f.procs[name]; isProc {
		if nargs < pi.min || (pi.max >= 0 && nargs > pi.max) {
			f.report(pos, cmd.Pos, "arity", "wrong # args for proc %q: got %d, want %s", name, nargs, boundsText(pi.min, pi.max))
		}
		f.trackDefs(name, cmd, track)
		return
	}
	meta, hasMeta := f.c.T.Metas[name]
	if !f.c.T.Commands[name] && !f.extra[name] && !hasMeta {
		f.report(pos, cmd.Words[0].Pos, "unknown-command", "unknown command %q", name)
		return
	}
	if hasMeta {
		if nargs < meta.MinArgs || (meta.MaxArgs >= 0 && nargs > meta.MaxArgs) {
			f.report(pos, cmd.Pos, "arity", "wrong # args for %q: got %d, want %s", name, nargs, boundsText(meta.MinArgs, meta.MaxArgs))
			return
		}
		f.checkOptions(cmd, meta, pos)
		f.checkSubcommand(cmd, meta, pos)
		f.checkArgTypes(cmd, meta, pos)
		f.checkExprArgs(cmd, meta, pos)
		for _, idx := range meta.ScriptArgs {
			if idx < len(cmd.Words) {
				f.walkBracedScript(cmd.Words[idx], pos, sub, bodyTrack(track))
			}
		}
	}
	f.checkSpecial(name, cmd, pos, sub, track)
	f.trackDefs(name, cmd, track)
}

// checkArgTypes reports a literal argument of an Int, Float or Boolean
// parameter that does not convert, with the message the command gives
// at run time: spec.CheckWord is the conversion its trampoline calls.
func (f *fileCheck) checkArgTypes(cmd tcl.CommandView, meta tcl.CommandMeta, pos posFn) {
	for i := 1; i < len(cmd.Words) && i <= len(meta.ArgTypes); i++ {
		if word, ok := cmd.Words[i].Literal(); ok {
			if err := spec.CheckWord(meta.ArgTypes[i-1], word); err != nil {
				f.report(pos, cmd.Words[i].Pos, "argtype", "%v", err)
			}
		}
	}
}

func boundsText(min, max int) string {
	switch {
	case max < 0:
		return "at least " + strconv.Itoa(min)
	case min == max:
		return "exactly " + strconv.Itoa(min)
	default:
		return "between " + strconv.Itoa(min) + " and " + strconv.Itoa(max)
	}
}

// checkWordParts flags reads of obviously-undefined variables (only
// where track.checkReads) and walks [command] substitution parts,
// which execute inline with this command.
func (f *fileCheck) checkWordParts(w tcl.WordView, pos posFn, sub subFn, track *varTracker) {
	var visit func(parts []tcl.Part)
	visit = func(parts []tcl.Part) {
		for _, p := range parts {
			switch p.Kind {
			case tcl.PartVar:
				if track != nil && track.checkReads && !track.defined[varBase(p.Text)] {
					f.report(pos, p.Pos, "undefined-var", "variable %q is read before any assignment", p.Text)
				}
				if p.HasIndex {
					visit(p.Index)
				}
			case tcl.PartCommand:
				nested, nestedSub := nest(pos, sub, p.Pos+1)
				f.walk(p.Script, nested, nestedSub, track)
			}
		}
	}
	visit(w.Parts)
}

// nest derives the position mappers for a nested source slice that
// starts at base within the current script's source.
func nest(pos posFn, sub subFn, base int) (posFn, subFn) {
	if sub == nil {
		return func(int) (int, int) { return pos(0) }, nil
	}
	return sub(base), func(b int) posFn { return sub(base + b) }
}

// varBase strips an array index from a variable name: db(k) → db.
func varBase(name string) string {
	if i := strings.IndexByte(name, '('); i >= 0 {
		return name[:i]
	}
	return name
}

// checkOptions validates leading "-option" words against the meta's
// option list. Numeric words ("-5") and everything after "--" or the
// first non-dash word are left alone.
func (f *fileCheck) checkOptions(cmd tcl.CommandView, meta tcl.CommandMeta, pos posFn) {
	if len(meta.Options) == 0 {
		return
	}
	name, _ := cmd.Words[0].Literal()
	for i := 1; i < len(cmd.Words); i++ {
		lit, ok := cmd.Words[i].Literal()
		if !ok || !strings.HasPrefix(lit, "-") || lit == "--" {
			return
		}
		if _, err := strconv.ParseFloat(lit, 64); err == nil {
			return
		}
		valid := false
		for _, o := range meta.Options {
			if o == lit {
				valid = true
				break
			}
		}
		if !valid {
			f.report(pos, cmd.Words[i].Pos, "option", "unknown %s option %q (valid: %s)", name, lit, strings.Join(meta.Options, " "))
			return
		}
	}
}

func (f *fileCheck) checkSubcommand(cmd tcl.CommandView, meta tcl.CommandMeta, pos posFn) {
	if len(meta.Subcommands) == 0 || len(cmd.Words) < 2 {
		return
	}
	lit, ok := cmd.Words[1].Literal()
	if !ok {
		return
	}
	for _, s := range meta.Subcommands {
		if s == lit {
			return
		}
	}
	name, _ := cmd.Words[0].Literal()
	f.report(pos, cmd.Words[1].Pos, "subcommand", "unknown %s subcommand %q (valid: %s)", name, lit, strings.Join(meta.Subcommands, " "))
}

// checkExprArgs statically checks braced expression arguments (and,
// for expr itself, fully-literal multi-word expressions).
func (f *fileCheck) checkExprArgs(cmd tcl.CommandView, meta tcl.CommandMeta, pos posFn) {
	name, _ := cmd.Words[0].Literal()
	if name == "expr" {
		// Join fully-literal operands like cmdExpr does; any dynamic
		// word defers the whole check to runtime.
		var b strings.Builder
		for i := 1; i < len(cmd.Words); i++ {
			lit, ok := cmd.Words[i].Literal()
			if !ok {
				return
			}
			if i > 1 {
				b.WriteByte(' ')
			}
			b.WriteString(lit)
		}
		if err := tcl.CheckExpr(b.String()); err != nil {
			off := cmd.Words[1].Pos
			if pe, isPE := err.(*tcl.ParseError); isPE && len(cmd.Words) == 2 && cmd.Words[1].Form == '{' {
				off = cmd.Words[1].Pos + 1 + pe.Off
			}
			f.report(pos, off, "expr", "%s", err.Error())
		}
		return
	}
	for _, idx := range meta.ExprArgs {
		if idx >= len(cmd.Words) {
			continue
		}
		w := cmd.Words[idx]
		if w.Form != '{' {
			continue
		}
		lit, ok := w.Literal()
		if !ok {
			continue
		}
		if err := tcl.CheckExpr(lit); err != nil {
			off := w.Pos + 1
			if pe, isPE := err.(*tcl.ParseError); isPE {
				off += pe.Off
			}
			f.report(pos, off, "expr", "%s", err.Error())
		}
	}
}

// walkBracedScript compiles and walks a braced literal word as a
// script; other word forms are dynamic and skipped.
func (f *fileCheck) walkBracedScript(w tcl.WordView, pos posFn, sub subFn, track *varTracker) {
	if w.Form != '{' {
		return
	}
	lit, ok := w.Literal()
	if !ok {
		return
	}
	s, _ := tcl.Compile(lit)
	nested, nestedSub := nest(pos, sub, w.Pos+1)
	f.walk(s, nested, nestedSub, track)
}

// checkSpecial handles per-command structure beyond what CommandMeta
// expresses: if/switch bodies, proc bodies, widget creation, resource
// names, callback/action/lifecycle percent codes.
func (f *fileCheck) checkSpecial(name string, cmd tcl.CommandView, pos posFn, sub subFn, track *varTracker) {
	T := f.c.T
	words := cmd.Words
	switch name {
	case "if":
		f.checkIf(cmd, pos, sub, track)
	case "switch":
		f.checkSwitch(cmd, pos, sub, track)
	case "proc":
		if len(words) == 4 {
			// Proc bodies run in their own scope later: walk with no
			// variable tracking.
			f.walkBracedScript(words[3], pos, sub, nil)
		}
	case "addCallback":
		if len(words) == 4 {
			f.checkPercentScript(words[3], core.KnownCallbackPercentCodes, pos, sub)
		}
	case "addTimeOut":
		if len(words) == 3 {
			f.walkBracedScript(words[2], pos, sub, nil)
		}
	case "ownSelection":
		if len(words) == 4 {
			f.checkPercentScript(words[3], selectionPercentCodes, pos, sub)
		}
	case "rddRegisterSource":
		if len(words) == 3 {
			f.checkPercentScript(words[2], rddSourcePercentCodes, pos, sub)
		}
	case "rddRegisterTarget":
		if len(words) == 3 {
			f.checkPercentScript(words[2], rddTargetPercentCodes, pos, sub)
		}
	case "action":
		// action widget mode translations...: scan each translation
		// table for exec() percent codes.
		for i := 3; i < len(words); i++ {
			f.checkPercentCodes(words[i], core.KnownActionPercentCodes, pos)
		}
	case "setValues", "sV", "sv":
		f.checkResourcePairs(words, 1, pos, sub)
	case "getValue", "gV":
		if len(words) == 3 {
			if wname, ok := words[1].Literal(); ok {
				f.checkResourceName(words[2], wname, false, pos)
			}
		}
	case "mergeResources":
		f.checkMergeResources(cmd, pos, sub)
	default:
		if class, isCreation := T.Classes[name]; isCreation {
			f.checkCreation(class, cmd, pos, sub)
		}
	}
}

// checkIf walks the full if/elseif/else structure: conditions are
// expression args, bodies are scripts.
func (f *fileCheck) checkIf(cmd tcl.CommandView, pos posFn, sub subFn, track *varTracker) {
	words := cmd.Words
	i := 1
	for {
		if i >= len(words) {
			return
		}
		cond := words[i] // condition
		if cond.Form == '{' {
			if lit, ok := cond.Literal(); ok {
				if err := tcl.CheckExpr(lit); err != nil {
					off := cond.Pos + 1
					if pe, isPE := err.(*tcl.ParseError); isPE {
						off += pe.Off
					}
					f.report(pos, off, "expr", "%s", err.Error())
				}
			}
		}
		i++
		if i < len(words) {
			if lit, ok := words[i].Literal(); ok && lit == "then" {
				i++
			}
		}
		if i >= len(words) {
			f.report(pos, cmd.Pos, "arity", "if: missing script after condition")
			return
		}
		f.walkBracedScript(words[i], pos, sub, bodyTrack(track))
		i++
		if i >= len(words) {
			return
		}
		kw, ok := words[i].Literal()
		if !ok {
			return
		}
		switch kw {
		case "elseif":
			i++
			continue
		case "else":
			i++
			if i >= len(words) {
				f.report(pos, cmd.Pos, "arity", "if: missing script after \"else\"")
				return
			}
			f.walkBracedScript(words[i], pos, sub, bodyTrack(track))
			return
		default:
			// Implicit else body.
			f.walkBracedScript(words[i], pos, sub, bodyTrack(track))
			return
		}
	}
}

// checkSwitch walks switch pattern/body pairs given as separate
// words; the single-braced-list form is left to runtime.
func (f *fileCheck) checkSwitch(cmd tcl.CommandView, pos posFn, sub subFn, track *varTracker) {
	words := cmd.Words
	i := 1
	for i < len(words) {
		lit, ok := words[i].Literal()
		if !ok || !strings.HasPrefix(lit, "-") {
			break
		}
		i++
		if lit == "--" {
			break
		}
	}
	i++ // the subject string
	if len(words)-i < 2 {
		return // single-list form or malformed; runtime reports it
	}
	for ; i+1 < len(words); i += 2 {
		body := words[i+1]
		if lit, ok := body.Literal(); ok && lit == "-" {
			continue // fall-through body
		}
		f.walkBracedScript(body, pos, sub, bodyTrack(track))
	}
}

// checkCreation validates a widget-creation command: tracks the new
// widget's class, checks option placement and resource-name pairs.
func (f *fileCheck) checkCreation(class *xt.Class, cmd tcl.CommandView, pos posFn, sub subFn) {
	words := cmd.Words
	if len(words) < 3 {
		return
	}
	rest := 3
	if len(words) > 3 {
		if lit, ok := words[3].Literal(); ok && (lit == "-unmanaged" || lit == "unmanaged") {
			rest = 4
		}
	}
	var parent *xt.Class
	if father, ok := words[2].Literal(); ok {
		if wi, known := f.widgets[father]; known {
			parent = wi.class
		}
	}
	if wname, ok := words[1].Literal(); ok {
		f.widgets[wname] = widgetInfo{class: class, parent: parent}
	}
	if (len(words)-rest)%2 != 0 {
		f.report(pos, cmd.Pos, "arity", "%s: resource arguments must come in attribute-value pairs", class.Name)
		return
	}
	for i := rest; i+1 < len(words); i += 2 {
		f.checkResourcePair(words[i], words[i+1], class, parent, pos, sub)
	}
}

// checkResourcePairs validates setValues-style trailing resource
// pairs starting after widgetIdx.
func (f *fileCheck) checkResourcePairs(words []tcl.WordView, widgetIdx int, pos posFn, sub subFn) {
	if len(words) < widgetIdx+1 {
		return
	}
	var class, parent *xt.Class
	if wname, ok := words[widgetIdx].Literal(); ok {
		if wi, known := f.widgets[wname]; known {
			class, parent = wi.class, wi.parent
		}
	}
	if (len(words)-widgetIdx-1)%2 != 0 {
		name, _ := words[0].Literal()
		f.report(pos, words[0].Pos, "arity", "%s: resource arguments must come in attribute-value pairs", name)
		return
	}
	for i := widgetIdx + 1; i+1 < len(words); i += 2 {
		f.checkResourcePair(words[i], words[i+1], class, parent, pos, sub)
	}
}

// checkResourcePair validates one resource-name/value pair against a
// class (nil = any class) and checks callback values' percent codes.
func (f *fileCheck) checkResourcePair(nameW, valueW tcl.WordView, class, parent *xt.Class, pos posFn, sub subFn) {
	resName, ok := nameW.Literal()
	if !ok {
		return
	}
	typ, found := f.resolveResource(resName, class, parent)
	if !found {
		if class != nil {
			f.report(pos, nameW.Pos, "resource", "widget class %q has no resource %q", class.Name, resName)
		} else {
			f.report(pos, nameW.Pos, "resource", "no widget class has a resource %q", resName)
		}
		return
	}
	if IsCallbackType(typ) {
		f.checkPercentScript(valueW, core.KnownCallbackPercentCodes, pos, sub)
	}
}

// checkResourceName validates a bare resource-name argument (getValue).
func (f *fileCheck) checkResourceName(w tcl.WordView, widgetName string, _ bool, pos posFn) {
	resName, ok := w.Literal()
	if !ok {
		return
	}
	var class, parent *xt.Class
	if wi, known := f.widgets[widgetName]; known {
		class, parent = wi.class, wi.parent
	}
	if _, found := f.resolveResource(resName, class, parent); !found {
		if class != nil {
			f.report(pos, w.Pos, "resource", "widget class %q has no resource %q", class.Name, resName)
		} else {
			f.report(pos, w.Pos, "resource", "no widget class has a resource %q", resName)
		}
	}
}

// resolveResource looks a resource name up for a widget of the given
// class under the given parent; nil class falls back to the union
// across every class (conservative: only names no class knows are
// flagged).
func (f *fileCheck) resolveResource(resName string, class, parent *xt.Class) (typ string, found bool) {
	T := f.c.T
	if class != nil {
		if rm, ok := T.ResTypes[class.Name]; ok {
			if t, ok := rm[resName]; ok {
				return t, true
			}
		} else {
			// Class outside the table (shouldn't happen): fall back.
			if t, ok := T.UnionRes[resName]; ok {
				return t, true
			}
		}
		if parent != nil {
			if cm, ok := T.Constraints[parent.Name]; ok {
				if t, ok := cm[resName]; ok {
					return t, true
				}
			}
			return "", false
		}
		// Parent unknown: any constraint name may be valid.
		if t, ok := T.UnionConstraints[resName]; ok {
			return t, true
		}
		return "", false
	}
	if t, ok := T.UnionRes[resName]; ok {
		return t, true
	}
	if t, ok := T.UnionConstraints[resName]; ok {
		return t, true
	}
	return "", false
}

// checkMergeResources validates spec/value pairs: lifecycle scripts
// get backend percent validation, callback-typed resources get
// callback percent validation.
func (f *fileCheck) checkMergeResources(cmd tcl.CommandView, pos posFn, sub subFn) {
	words := cmd.Words
	for i := 1; i+1 < len(words); i += 2 {
		spec, ok := words[i].Literal()
		if !ok {
			continue
		}
		last := lastSpecComponent(spec)
		switch {
		case last == "onBackendExit" || last == "onBackendRestart":
			f.checkPercentScript(words[i+1], core.KnownBackendPercentCodes, pos, sub)
		case IsCallbackType(f.c.T.UnionRes[last]):
			f.checkPercentScript(words[i+1], core.KnownCallbackPercentCodes, pos, sub)
		}
	}
}

// checkPercentCodes validates the percent codes of a literal word
// against a known set without treating the word as a script.
func (f *fileCheck) checkPercentCodes(w tcl.WordView, valid string, pos posFn) {
	lit, ok := w.Literal()
	if !ok {
		return
	}
	ps := core.NewPercentScript(lit)
	for _, code := range ps.Codes() {
		if !strings.ContainsRune(valid, rune(code)) {
			f.report(pos, w.Pos, "percent", "invalid percent code %%%c (valid: %s)", code, percentSetText(valid))
		}
	}
}

// checkPercentScript validates a deferred script's percent codes via
// core.PercentScript and then walks the script body — with codes
// substituted by a placeholder — for unknown commands and arity.
func (f *fileCheck) checkPercentScript(w tcl.WordView, valid string, pos posFn, sub subFn) {
	lit, ok := w.Literal()
	if !ok {
		return
	}
	ps := core.NewPercentScript(lit)
	bad := false
	for _, code := range ps.Codes() {
		if !strings.ContainsRune(valid, rune(code)) {
			f.report(pos, w.Pos, "percent", "invalid percent code %%%c (valid: %s)", code, percentSetText(valid))
			bad = true
		}
	}
	if bad {
		return
	}
	if compiled := ps.Compiled(); compiled != nil {
		// Static script: positions map exactly for braced/quoted words.
		base := w.Pos
		if w.Form == '{' || w.Form == '"' {
			base++
		}
		nested, nestedSub := nest(pos, sub, base)
		if w.Form == '"' && len(w.Parts) != 1 {
			// Escapes shifted positions; anchor at the word.
			nested, nestedSub = func(int) (int, int) { return pos(w.Pos) }, nil
		}
		f.walk(compiled, nested, nestedSub, nil)
		return
	}
	// Percent codes present: expand with placeholders and anchor all
	// diagnostics at the enclosing word.
	expanded := ps.ExpandWith(func(byte) string { return "0" })
	s, _ := tcl.Compile(expanded)
	f.walk(s, func(int) (int, int) { return pos(w.Pos) }, nil, nil)
}

// percentSetText renders a valid-code set as %w %i ... for messages.
func percentSetText(valid string) string {
	var b strings.Builder
	for i := 0; i < len(valid); i++ {
		if valid[i] == '%' {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('%')
		b.WriteByte(valid[i])
	}
	return b.String()
}

// trackDefs records the variables a straight-line command defines.
func (f *fileCheck) trackDefs(name string, cmd tcl.CommandView, track *varTracker) {
	if track == nil {
		return
	}
	words := cmd.Words
	def := func(idx int) {
		if idx < len(words) {
			if lit, ok := words[idx].Literal(); ok {
				track.defined[varBase(lit)] = true
			}
		}
	}
	switch name {
	case "set":
		if len(words) == 3 {
			def(1)
		}
	case "foreach":
		def(1)
	case "global", "upvar":
		for i := 1; i < len(words); i++ {
			def(i)
		}
	case "array":
		if len(words) > 1 {
			if sub, ok := words[1].Literal(); ok && sub == "set" {
				def(2)
			}
		}
	case "scan":
		for i := 3; i < len(words); i++ {
			def(i)
		}
	case "regexp":
		// Match variables follow the exp and string arguments; options
		// may precede them, so conservatively define every literal
		// trailing word after the first two non-option args.
		seen := 0
		for i := 1; i < len(words); i++ {
			lit, ok := words[i].Literal()
			if ok && seen == 0 && strings.HasPrefix(lit, "-") {
				continue
			}
			seen++
			if seen > 2 {
				def(i)
			}
		}
	case "unset":
		for i := 1; i < len(words); i++ {
			if lit, ok := words[i].Literal(); ok {
				delete(track.defined, varBase(lit))
			}
		}
	default:
		if meta, ok := f.c.T.Metas[name]; ok {
			for _, idx := range meta.VarArgs {
				def(idx)
			}
		}
	}
}
