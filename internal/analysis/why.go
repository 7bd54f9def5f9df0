package analysis

import (
	"fmt"
	"strings"

	"wafe/internal/tcl"
)

// This file implements `wafecheck -why`: per command site, report
// whether the bytecode VM specializes the command or which rule forces
// generic dispatch. Labels come from tcl.ExplainScript, which reads
// the actually-compiled Program; this file contributes the structural
// recursion (proc bodies, loop bodies, if/switch arms, [command]
// substitutions) and the byte-offset → file line/column mapping that
// check.go's walker established.

// SiteReport is the -why record for one command site.
type SiteReport struct {
	File      string
	Line, Col int
	// Cmd is the literal command name, "?" when dynamic.
	Cmd string
	// Proc is the enclosing proc name, "" at the top level.
	Proc string
	// Op is the dispatch opcode ("set", "incr", "expr", "exprTmpl",
	// "while", "for", "invoke").
	Op          string
	Specialized bool
	// Reason is the fallback explanation for generic sites.
	Reason string
}

// Site renders the ISSUE-format site label "cmd@proc:line".
func (s SiteReport) Site() string {
	proc := s.Proc
	if proc == "" {
		proc = "<toplevel>"
	}
	return fmt.Sprintf("%s@%s:%d", s.Cmd, proc, s.Line)
}

func (s SiteReport) String() string {
	label := fmt.Sprintf("specialized (%s)", s.Op)
	if !s.Specialized {
		label = "generic: " + s.Reason
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", s.File, s.Line, s.Col, s.Site(), label)
}

// ExplainFile labels every statically-reachable command site of a
// .wafe source: the top level, proc bodies, loop and branch bodies,
// and [command] substitutions. Sites whose script text is dynamic
// (built at runtime) cannot be labeled statically and are skipped,
// exactly as the VM cannot compile them ahead of time either.
func ExplainFile(file, src string) []SiteReport {
	at := func(off int) (int, int) { return tcl.LineCol(src, off) }
	e := &explainer{file: file}
	exact := func(base int) posFn {
		return func(off int) (int, int) { return at(base + off) }
	}
	s, _ := tcl.Compile(src)
	e.walk(s, exact(0), exact, "", 0)
	return e.sites
}

type explainer struct {
	file  string
	sites []SiteReport
}

// walk explains one compiled script and recurses into every braced
// word that the interpreter will evaluate as its own script.
func (e *explainer) walk(s *tcl.Script, pos posFn, sub subFn, proc string, depth int) {
	if s == nil || depth > 20 {
		return
	}
	byPos := make(map[int]tcl.CmdExplanation)
	for _, ex := range tcl.ExplainScript(s) {
		byPos[ex.Pos] = ex
	}
	for _, cmd := range s.Commands() {
		if len(cmd.Words) == 0 {
			continue
		}
		ex, ok := byPos[cmd.Words[0].Pos]
		if !ok {
			continue
		}
		line, col := pos(cmd.Pos)
		name := ex.Name
		if name == "" {
			name = "?"
		}
		e.sites = append(e.sites, SiteReport{
			File: e.file, Line: line, Col: col,
			Cmd: name, Proc: proc,
			Op: ex.Op, Specialized: ex.Specialized,
			Reason: ex.Reason,
		})
		// Command substitutions execute inline with this command.
		for _, w := range cmd.Words {
			e.walkParts(w.Parts, pos, sub, proc, depth)
		}
		e.recurse(ex.Name, cmd, pos, sub, proc, depth)
	}
}

func (e *explainer) walkParts(parts []tcl.Part, pos posFn, sub subFn, proc string, depth int) {
	for _, p := range parts {
		switch p.Kind {
		case tcl.PartCommand:
			nested, nestedSub := nest(pos, sub, p.Pos+1)
			e.walk(p.Script, nested, nestedSub, proc, depth+1)
		case tcl.PartVar:
			if p.HasIndex {
				e.walkParts(p.Index, pos, sub, proc, depth)
			}
		}
	}
}

// recurse descends into the braced script arguments the interpreter
// evaluates as separate Programs: proc bodies (with the proc label),
// loop bodies, if/switch arms and catch bodies.
func (e *explainer) recurse(name string, cmd tcl.CommandView, pos posFn, sub subFn, proc string, depth int) {
	words := cmd.Words
	braced := func(w tcl.WordView, inProc string) {
		if w.Form != '{' {
			return
		}
		lit, ok := w.Literal()
		if !ok {
			return
		}
		s, _ := tcl.Compile(lit)
		nested, nestedSub := nest(pos, sub, w.Pos+1)
		e.walk(s, nested, nestedSub, inProc, depth+1)
	}
	switch name {
	case "proc":
		if len(words) == 4 {
			pname, _ := words[1].Literal()
			braced(words[3], pname)
		}
	case "while":
		if len(words) == 3 {
			braced(words[2], proc)
		}
	case "for":
		if len(words) == 5 {
			braced(words[1], proc)
			braced(words[3], proc)
			braced(words[4], proc)
		}
	case "foreach":
		if len(words) >= 4 {
			braced(words[len(words)-1], proc)
		}
	case "catch":
		if len(words) >= 2 {
			braced(words[1], proc)
		}
	case "if":
		e.recurseIf(cmd, pos, sub, proc, depth)
	case "switch":
		e.recurseSwitch(cmd, pos, sub, proc, depth)
	}
}

// recurseIf mirrors checkIf's structure walk: skip conditions, descend
// into every then/elseif/else body.
func (e *explainer) recurseIf(cmd tcl.CommandView, pos posFn, sub subFn, proc string, depth int) {
	words := cmd.Words
	braced := func(w tcl.WordView) {
		if w.Form != '{' {
			return
		}
		if lit, ok := w.Literal(); ok {
			s, _ := tcl.Compile(lit)
			nested, nestedSub := nest(pos, sub, w.Pos+1)
			e.walk(s, nested, nestedSub, proc, depth+1)
		}
	}
	i := 1 // condition
	for {
		i++ // past the condition
		if i < len(words) {
			if lit, ok := words[i].Literal(); ok && lit == "then" {
				i++
			}
		}
		if i >= len(words) {
			return
		}
		braced(words[i])
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
			i++ // now at the next condition
			continue
		case "else":
			i++
			if i < len(words) {
				braced(words[i])
			}
			return
		default:
			braced(words[i]) // implicit else body
			return
		}
	}
}

// recurseSwitch mirrors checkSwitch: descend into pattern/body pairs
// given as separate words.
func (e *explainer) recurseSwitch(cmd tcl.CommandView, pos posFn, sub subFn, proc string, depth int) {
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
		return
	}
	for ; i+1 < len(words); i += 2 {
		body := words[i+1]
		if lit, ok := body.Literal(); ok && lit == "-" {
			continue
		}
		if body.Form != '{' {
			continue
		}
		if lit, ok := body.Literal(); ok {
			s, _ := tcl.Compile(lit)
			nested, nestedSub := nest(pos, sub, body.Pos+1)
			e.walk(s, nested, nestedSub, proc, depth+1)
		}
	}
}
