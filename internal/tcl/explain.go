package tcl

import (
	"strconv"
	"strings"
)

// This file explains the bytecode compiler's specialization decisions
// for tooling (`wafecheck -why`). For every command of a script it
// reports whether the VM compiles it to a dedicated opcode or sends it
// through generic opInvoke dispatch, and — for generic sites — which
// rule of trySpecialize forced the fallback.
//
// The specialized/generic label is read off the actually-compiled
// Program (the same compileProgram the VM executes), so it cannot
// drift from the engine. The textual reason comes from explainGeneric,
// a mirror of trySpecialize's reject conditions; the Mismatch field
// records the (never expected) case where the mirror disagrees with
// the compiler, which the cross-check tests gate on.

// CmdExplanation is the specialization report for one command.
type CmdExplanation struct {
	// Pos is the byte offset of the command's first word in the
	// script's Source.
	Pos int
	// Name is the literal command name, "" when the name is dynamic.
	Name string
	// Op is the dispatch opcode the compiler emitted: one of "set",
	// "incr", "expr", "exprTmpl", "while", "for" (specialized) or
	// "invoke" (generic).
	Op string
	// Specialized reports whether the command bypasses the command
	// table via a dedicated opcode.
	Specialized bool
	// Reason explains, for generic sites, which rule forced the
	// fallback; "" for specialized sites.
	Reason string
	// Mismatch reports that the syntactic mirror predicted a different
	// label than the compiler produced (a tooling bug, gated in tests).
	Mismatch bool
}

// dispatchOpName maps a dispatch opcode to its mnemonic.
func dispatchOpName(o op) string {
	switch o {
	case opSet:
		return "set"
	case opIncr:
		return "incr"
	case opExpr:
		return "expr"
	case opExprTmpl:
		return "exprTmpl"
	case opWhile:
		return "while"
	case opFor:
		return "for"
	default:
		return "invoke"
	}
}

// ExplainScript compiles s with a scratch interpreter (whose builtins
// are untouched, so specialization is enabled exactly as in a fresh
// session) and explains every command. Commands inside nested scripts
// are not traversed; callers recurse structurally (the analysis
// package does, with position mapping).
func ExplainScript(s *Script) []CmdExplanation {
	if s == nil {
		return nil
	}
	in := New()
	p := in.compileProgram(s)
	out := make([]CmdExplanation, 0, len(p.cmds))
	for i := range p.cmds {
		pc := &p.cmds[i]
		cmd := pc.src
		if pc.end <= pc.start || len(cmd.words) == 0 {
			continue
		}
		last := p.insns[pc.end-1]
		opName := dispatchOpName(last.op)
		name, _ := wordLiteral(cmd.words[0])
		e := CmdExplanation{
			Pos:         cmd.words[0].pos,
			Name:        name,
			Op:          opName,
			Specialized: last.op != opInvoke,
		}
		predictedGeneric, reason := explainGeneric(cmd)
		if e.Specialized {
			e.Mismatch = predictedGeneric
		} else {
			e.Reason = reason
			e.Mismatch = !predictedGeneric
			if e.Mismatch {
				e.Reason = "mirror predicted a specialized opcode but the compiler emitted generic dispatch"
			}
		}
		out = append(out, e)
	}
	return out
}

// explainGeneric mirrors trySpecialize: it reports whether the command
// stays on generic dispatch and, if so, why. The conditions below must
// reject exactly when trySpecialize rejects; the Mismatch cross-check
// in the tests keeps the two in sync.
func explainGeneric(cmd *parsedCommand) (generic bool, reason string) {
	words := cmd.words
	name, nameLit := wordLiteral(words[0])
	if !nameLit {
		return true, "command name is not a single literal word; resolved through the command table at runtime"
	}
	switch name {
	case "set":
		if len(words) != 3 {
			return true, "specialized form is `set NAME value`; other arities keep the classic path"
		}
		vn, ok := wordLiteral(words[1])
		if !ok {
			return true, "variable name is not a literal word"
		}
		if _, _, isArr := splitArrayRef(vn); isArr {
			return true, "array references keep the classic set path and its error surface"
		}
		return false, ""
	case "incr":
		if len(words) != 2 && len(words) != 3 {
			return true, "specialized form is `incr NAME ?delta?`"
		}
		vn, ok := wordLiteral(words[1])
		if !ok {
			return true, "variable name is not a literal word"
		}
		if _, _, isArr := splitArrayRef(vn); isArr {
			return true, "array references keep the classic incr path"
		}
		if len(words) == 3 {
			lit, ok := wordLiteral(words[2])
			if !ok {
				return true, "delta is not a literal word"
			}
			d, err := strconv.ParseInt(strings.TrimSpace(lit), 0, 64)
			if err != nil || d != int64(int32(d)) {
				return true, "delta " + strconv.Quote(lit) + " is not a literal 32-bit integer; the classic path produces the error text"
			}
		}
		return false, ""
	case "expr":
		if len(words) == 2 {
			if src, ok := wordLiteral(words[1]); ok {
				if _, err := compileExprAST(src); err != nil {
					return true, "expression does not compile statically (" + err.Error() + "); generic dispatch raises it when the command runs"
				}
				return false, ""
			}
		}
		if reason := explainExprTemplate(words[1:]); reason != "" {
			return true, reason
		}
		return false, ""
	case "while":
		if len(words) != 3 {
			return true, "specialized form is `while {cond} {body}`"
		}
		condSrc, ok1 := wordLiteral(words[1])
		_, ok2 := wordLiteral(words[2])
		if !ok1 {
			return true, "condition is not a literal word (brace it so the loop re-tests it each iteration and the VM can pre-compile it)"
		}
		if !ok2 {
			return true, "body is not a literal word"
		}
		if _, err := compileExprAST(condSrc); err != nil {
			return true, "condition does not compile as a typed expression (" + err.Error() + ")"
		}
		return false, ""
	case "for":
		if len(words) != 5 {
			return true, "specialized form is `for {init} {cond} {next} {body}`"
		}
		for i := 1; i < 5; i++ {
			if _, ok := wordLiteral(words[i]); !ok {
				return true, "argument " + strconv.Itoa(i) + " is not a literal word"
			}
		}
		condSrc, _ := wordLiteral(words[2])
		if _, err := compileExprAST(condSrc); err != nil {
			return true, "condition does not compile as a typed expression (" + err.Error() + ")"
		}
		return false, ""
	}
	return true, "no specialized opcode for " + strconv.Quote(name) + "; dispatched through the (inline-cached) command table"
}

// explainExprTemplate mirrors buildExprTemplate's reject conditions for
// a multi-word expr; "" means the template compiles.
func explainExprTemplate(args []word) string {
	var b strings.Builder
	for wi, w := range args {
		if w.form != 0 {
			return "operand word " + strconv.Itoa(wi+1) + " is braced or quoted; reconstruction could change the expression's shape"
		}
		if w.expand {
			return "operand word " + strconv.Itoa(wi+1) + " uses {*} expansion"
		}
		if len(w.tokens) == 0 {
			return "operand word " + strconv.Itoa(wi+1) + " is empty"
		}
		if wi > 0 {
			b.WriteByte(' ')
		}
		for ti, t := range w.tokens {
			switch t.kind {
			case tokText:
				if !exprSafeText(t.text) {
					return "literal " + strconv.Quote(t.text) + " contains characters that are unsafe to splice into reconstructed expression source"
				}
				b.WriteString(t.text)
			case tokVar:
				if t.hasIdx {
					return "array reference $" + t.text + "(...) cannot be a template slot"
				}
				if ti+1 < len(w.tokens) {
					nt := w.tokens[ti+1]
					if nt.kind == tokText && len(nt.text) > 0 &&
						(isVarNameChar(nt.text[0]) || nt.text[0] == '(') {
						return "$" + t.text + " abuts more name characters; reconstruction would read a different variable"
					}
				}
				b.WriteByte('$')
				b.WriteString(t.text)
			default:
				return "command substitution in an operand must not run twice (once per template evaluation and once on the bail path)"
			}
		}
	}
	src := b.String()
	node, err := compileExprAST(src)
	if err != nil {
		return "reconstructed expression does not compile statically (" + err.Error() + ")"
	}
	var vars []string
	if _, ok := rewriteTemplateVars(node, &vars); !ok {
		return "expression contains nodes that are not pure functions of its variable slots"
	}
	return ""
}

// DispatchCounts tallies VM dispatches by opcode kind. One field per
// dispatch opcode; Invoke is the generic path, everything else a
// specialized one. Counting happens on the owning event-loop goroutine
// only (like every other interpreter touch), so plain int64s suffice.
type DispatchCounts struct {
	Invoke, Set, Incr, Expr, ExprTmpl, While, For int64
}

// SpecializedTotal sums the dispatches that bypassed the command table.
func (d *DispatchCounts) SpecializedTotal() int64 {
	return d.Set + d.Incr + d.Expr + d.ExprTmpl + d.While + d.For
}

// CountDispatch arms per-opcode dispatch counting and returns the
// live counter struct (idempotent: a second call returns the same).
func (in *Interp) CountDispatch() *DispatchCounts {
	if in.opCounts == nil {
		in.opCounts = &DispatchCounts{}
	}
	return in.opCounts
}

// NonCanonicalNumber reports whether s parses as a number under the
// permissive parsers (base-0 integer after space trimming, or a float)
// but is NOT a canonical spelling internValue upgrades to a typed int.
// Such values keep string semantics in the VM: every numeric use
// re-parses the text, and expr templates bail to the classic path.
// The second result is the canonical respelling when one exists.
func NonCanonicalNumber(s string) (canonical string, ok bool) {
	if internValue(s).kind == vInt {
		return "", false // already canonical
	}
	if v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64); err == nil {
		return strconv.FormatInt(v, 10), true
	}
	return "", false
}
