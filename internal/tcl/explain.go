package tcl

import (
	"strconv"
	"strings"
)

// This file explains the bytecode compiler's specialization decisions
// for tooling (`wafecheck -why`). For every command of a script it
// reports whether the VM compiles it to a dedicated opcode or sends it
// through generic opInvoke dispatch, and — for generic sites — which
// rule of trySpecialize forced the fallback. Both come from the
// actually-compiled Program (the same compileProgram the VM executes):
// the label from the dispatch opcode, the reason from the code the
// compiler stored on the command, so neither can drift from the engine.

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
}

// reason is the compiler's record of why a command stays on generic
// dispatch (progCmd.reason); reasonNone marks a specialized command.
type reason uint8

const (
	reasonNone reason = iota
	reasonDynamicName
	reasonRebound
	reasonNoOpcode
	reasonSetArity
	reasonVarNotLiteral
	reasonSetArray
	reasonIncrArity
	reasonIncrArray
	reasonDeltaNotLiteral
	reasonBadDelta
	reasonExprSyntax
	reasonWhileArity
	reasonForArity
	reasonCondNotLiteral
	reasonBodyNotLiteral
	reasonForArgNotLiteral
	reasonCondSyntax
	// The multi-word expr template rules (buildExprTemplate).
	reasonOperandQuoted
	reasonOperandEmpty
	reasonUnsafeLiteral
	reasonArraySlot
	reasonAbutting
	reasonCommandOperand
	reasonTemplateSyntax
	reasonImpureNode
)

// text renders r for the command whose words the compiler refused,
// naming the offending word, literal or error message; "" for
// reasonNone.
func (r reason) text(words []word) string {
	name, _ := wordLiteral(words[0])
	// syntaxError is the message compileExprAST raises for word i.
	syntaxError := func(i int) string {
		src, _ := wordLiteral(words[i])
		_, err := compileExprAST(src)
		return err.Error()
	}
	switch r {
	case reasonNone:
		return ""
	case reasonDynamicName:
		return "command name is not a single literal word; resolved through the command table at runtime"
	case reasonRebound:
		return "set, incr, expr, while or for was rebound before the script compiled; every command is dispatched through the command table"
	case reasonNoOpcode:
		return "no specialized opcode for " + strconv.Quote(name) + "; dispatched through the (inline-cached) command table"
	case reasonSetArity:
		return "specialized form is `set NAME value`; other arities keep the classic path"
	case reasonVarNotLiteral:
		return "variable name is not a literal word"
	case reasonSetArray:
		return "array references keep the classic set path and its error surface"
	case reasonIncrArity:
		return "specialized form is `incr NAME ?delta?`"
	case reasonIncrArray:
		return "array references keep the classic incr path"
	case reasonDeltaNotLiteral:
		return "delta is not a literal word"
	case reasonBadDelta:
		lit, _ := wordLiteral(words[2])
		return "delta " + strconv.Quote(lit) + " is not a literal 32-bit integer; the classic path produces the error text"
	case reasonExprSyntax:
		return "expression does not compile statically (" + syntaxError(1) + "); generic dispatch raises it when the command runs"
	case reasonWhileArity:
		return "specialized form is `while {cond} {body}`"
	case reasonForArity:
		return "specialized form is `for {init} {cond} {next} {body}`"
	case reasonCondNotLiteral:
		return "condition is not a literal word (brace it so the loop re-tests it each iteration and the VM can pre-compile it)"
	case reasonBodyNotLiteral:
		return "body is not a literal word"
	case reasonForArgNotLiteral:
		i := 1
		for ; i < 4; i++ {
			if _, ok := wordLiteral(words[i]); !ok {
				break
			}
		}
		return "argument " + strconv.Itoa(i) + " is not a literal word"
	case reasonCondSyntax:
		cond := 1
		if name == "for" {
			cond = 2
		}
		return "condition does not compile as a typed expression (" + syntaxError(cond) + ")"
	}
	// A multi-word expr that does not form a template: templateSource
	// locates the refusing word and token again.
	args := words[1:]
	src, _, wi, ti := templateSource(args)
	word := "operand word " + strconv.Itoa(wi+1)
	tok := func() string { return args[wi].tokens[ti].text }
	switch r {
	case reasonOperandQuoted:
		return word + " is braced or quoted; reconstruction could change the expression's shape"
	case reasonOperandEmpty:
		return word + " is empty"
	case reasonUnsafeLiteral:
		return "literal " + strconv.Quote(tok()) + " contains characters that are unsafe to splice into reconstructed expression source"
	case reasonArraySlot:
		return "array reference $" + tok() + "(...) cannot be a template slot"
	case reasonAbutting:
		return "$" + tok() + " abuts more name characters; reconstruction would read a different variable"
	case reasonCommandOperand:
		return "command substitution in an operand must not run twice (once per template evaluation and once on the bail path)"
	case reasonTemplateSyntax:
		_, err := compileExprAST(src)
		return "reconstructed expression does not compile statically (" + err.Error() + ")"
	}
	return "expression contains nodes that are not pure functions of its variable slots"
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
	p := New().compileProgram(s)
	out := make([]CmdExplanation, 0, len(p.cmds))
	for i := range p.cmds {
		pc := &p.cmds[i]
		words := pc.src.words
		name, _ := wordLiteral(words[0])
		last := p.insns[pc.end-1].op
		out = append(out, CmdExplanation{
			Pos:         words[0].pos,
			Name:        name,
			Op:          dispatchOpName(last),
			Specialized: last != opInvoke,
			Reason:      pc.reason.text(words),
		})
	}
	return out
}

// DispatchCounts tallies VM dispatches by opcode kind. One field per
// dispatch opcode; Invoke is the generic path, everything else a
// specialized one. Counting happens on the owning event-loop goroutine
// only (like every other interpreter touch), so plain int64s suffice.
type DispatchCounts struct {
	Invoke, Set, Incr, Expr, ExprTmpl, While, For int64
}

// SpecializedTotal sums the dispatches that bypassed the command table.
//
//wafe:seam the wafecheck -why tests check their labels against the opcodes run
func (d *DispatchCounts) SpecializedTotal() int64 {
	return d.Set + d.Incr + d.Expr + d.ExprTmpl + d.While + d.For
}

// CountDispatch arms per-opcode dispatch counting and returns the
// live counter struct (idempotent: a second call returns the same).
//
//wafe:seam the wafecheck -why tests check their labels against the opcodes run
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
