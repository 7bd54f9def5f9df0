package tcl

import (
	"strconv"
	"strings"
)

// This file is the bytecode compiler of execution engine v2. It lowers
// a parsed Script (the command/word/token lists of script.go) one step
// further into a register Program: a flat instruction list plus operand
// tables. Each source command compiles to a short run of word
// instructions that fill a register window, terminated by a dispatch
// instruction; a handful of hot command shapes (set, incr, expr with a
// literal or reconstructible argument) compile to dedicated opcodes
// that skip argv construction and the command table entirely.
//
// The compiler is purely syntactic and interpreter-independent, but a
// Program is stored with its Script for one interpreter (Script.owner)
// because it embeds mutable inline dispatch caches.

type op uint8

const (
	// Word instructions: compute one word into a register.
	opConst  op = iota // regs[c] = consts[a]
	opVar              // regs[c] = scalar variable names[a] (typed read)
	opWord             // regs[c] = generic substitution of words[a]
	opScript           // regs[c] = result of nested script subs[a]

	// Dispatch instructions: exactly one terminates every command.
	opInvoke   // argv = regs[a : a+b] stringified; dispatch via cache site c (-1 = uncached)
	opSet      // names[a] <- regs[b]; result is the stored value
	opIncr     // names[a] += b; result is the new value
	opExpr     // result = typed evaluation of exprs[a]
	opExprTmpl // result = typed evaluation of tmpls[a], bailing to classic on impure operands
	opWhile    // loops[a]: while {cond} {body} with pre-compiled cond and pre-parsed body
	opFor      // loops[a]: for {init} {cond} {next} {body}, all pre-compiled
)

type insn struct {
	op      op
	a, b, c int32
}

// dispatchCache is one inline cache site: the command resolved for a
// literal name, valid while the interpreter's cmdGen matches.
type dispatchCache struct {
	gen uint64
	fn  CommandFunc
}

// loopInfo is the operand record of a specialized loop: the condition
// compiled to a typed expression AST (evaluated directly each
// iteration, skipping ExprBool's per-call source-cache lookup) and the
// loop scripts built with the Program, their own Programs included
// (skipping the per-invocation script-cache lookups the generic
// commands pay). init and next are nil for while.
type loopInfo struct {
	cond             exprNode
	init, next, body *Script
}

// exprTemplate is a compiled multi-word expr: the AST of the
// reconstructed source with every variable reference replaced by a
// slot, plus the slot variable names in fetch order. See
// buildExprTemplate for the equivalence argument.
type exprTemplate struct {
	node exprNode
	vars []string
	// refs are the per-slot variable-pointer caches, parallel to vars.
	refs []varRef
	// fastOp (non-"") marks a template that is exactly one binary
	// operator over two slots — the dominant shape of loop-carried
	// arithmetic like [expr $n % $d]. When both slot values are ints,
	// the evaluator runs intBinaryFast directly, skipping the AST walk;
	// any other case (floats, div-by-zero, eq/ne) takes the general
	// path, keeping applyBinary's exact semantics and error surface.
	fastOp       string
	fastL, fastR int
}

// progCmd is the per-source-command record: its instruction range
// (insns[end-1] is the dispatch instruction), why the compiler left
// the command on generic dispatch (reasonNone when it specialized it;
// read by ExplainScript), its 1-based source line (0 until a profiled
// run first asks, see Program.line), and the original parsed command
// (for the fallback and expr-template bail paths).
type progCmd struct {
	start, end int32
	reason     reason
	line       int32
	src        *parsedCommand
}

// Program is a compiled register-bytecode form of a Script.
type Program struct {
	script *Script
	insns  []insn
	cmds   []progCmd

	consts []Value
	names  []string
	words  []word
	subs   []*Script
	exprs  []exprNode
	tmpls  []*exprTemplate
	loops  []loopInfo
	caches []dispatchCache
	// vrefs are per-site variable-pointer caches, parallel to names:
	// the site that reads or writes names[i] validates vrefs[i] against
	// the current frame id and the interpreter's variable epoch. A
	// Program belongs to exactly one interpreter (its Script's owner),
	// which is what makes frame ids — unique only within one
	// interpreter — a sound cache key.
	vrefs []varRef

	// nregs is the register window size: the maximum word count of any
	// command in the script.
	nregs int
}

// program returns s's Program on this interpreter. A Script has one
// owner: the first run of a Script from Compile, or of one that ran on
// another interpreter, lowers it again for the interpreter running it.
func (in *Interp) program(s *Script) *Program {
	if s.owner != in || s.prog == nil {
		s.owner, s.prog = in, in.bld.program(s)
	}
	return s.prog
}

// compileProgram lowers s into a new Program for this interpreter.
func (in *Interp) compileProgram(s *Script) *Program { return in.bld.program(s) }

// program lowers every command of s into a Program from b's storage.
// Specialized opcodes are only emitted while set/incr/expr are known
// to be the builtins (specialGen == specialBase); see the interp
// fields.
func (b *builder) program(s *Script) *Program {
	p := b.newProgram(s)
	c := progCompiler{b: b, p: p, specialize: b.in.specialGen == b.in.specialBase}
	for i := range s.cmds {
		c.compileCommand(&s.cmds[i])
	}
	p.vrefs = append(p.vrefs, make([]varRef, len(p.names))...)
	return p
}

type progCompiler struct {
	// b builds the loop scripts of specialized loops, into the same
	// storage as the Program; compilation is otherwise
	// interpreter-independent. The recursion ends because a loop script
	// is a strict substring of the command being compiled.
	b          *builder
	p          *Program
	specialize bool
}

func (c *progCompiler) emit(i insn) { c.p.insns = append(c.p.insns, i) }

func (c *progCompiler) needRegs(n int) {
	if n > c.p.nregs {
		c.p.nregs = n
	}
}

// wordLiteral returns the literal text of a word that needs no
// substitution (a single text token), ok=false otherwise.
func wordLiteral(w word) (string, bool) {
	if len(w.tokens) == 1 && w.tokens[0].kind == tokText {
		return w.tokens[0].text, true
	}
	return "", false
}

func (c *progCompiler) addConst(v Value) int32 {
	c.p.consts = append(c.p.consts, v)
	return int32(len(c.p.consts) - 1)
}

func (c *progCompiler) addName(n string) int32 {
	for i, e := range c.p.names {
		if e == n {
			return int32(i)
		}
	}
	c.p.names = append(c.p.names, n)
	return int32(len(c.p.names) - 1)
}

func (c *progCompiler) compileCommand(cmd *parsedCommand) {
	words := cmd.words
	if len(words) == 0 {
		return
	}
	pc := progCmd{start: int32(len(c.p.insns)), src: cmd}
	name, nameLit := wordLiteral(words[0])
	switch {
	case !nameLit:
		pc.reason = reasonDynamicName
	case !c.specialize:
		pc.reason = reasonRebound
	default:
		pc.reason = c.trySpecialize(name, cmd)
	}
	if pc.reason != reasonNone {
		c.compileGeneric(words, nameLit)
	}
	pc.end = int32(len(c.p.insns))
	c.p.cmds = append(c.p.cmds, pc)
}

// trySpecialize emits a dedicated instruction sequence for the hot
// command shapes and returns reasonNone. When the shape does not
// qualify it emits nothing and returns the rule that refused it,
// leaving the command to generic dispatch.
func (c *progCompiler) trySpecialize(name string, cmd *parsedCommand) reason {
	words := cmd.words
	switch name {
	case "set":
		// set NAME value — NAME a literal plain scalar (array
		// references keep the classic path and its error surface).
		if len(words) != 3 {
			return reasonSetArity
		}
		vn, ok := wordLiteral(words[1])
		if !ok {
			return reasonVarNotLiteral
		}
		if _, _, isArr := splitArrayRef(vn); isArr {
			return reasonSetArray
		}
		c.needRegs(1)
		if !c.compileWordOp(words[2], 0) {
			c.p.words = append(c.p.words, words[2])
			c.emit(insn{op: opWord, a: int32(len(c.p.words) - 1), c: 0})
		}
		c.emit(insn{op: opSet, a: c.addName(vn), b: 0})
		return reasonNone
	case "incr":
		// incr NAME ?literal-int? — delta parsed at compile time with
		// the same trimmed base-0 rules cmdIncr applies at runtime; a
		// malformed literal keeps the classic path so the error text
		// is produced there.
		if len(words) != 2 && len(words) != 3 {
			return reasonIncrArity
		}
		vn, ok := wordLiteral(words[1])
		if !ok {
			return reasonVarNotLiteral
		}
		if _, _, isArr := splitArrayRef(vn); isArr {
			return reasonIncrArray
		}
		delta := int64(1)
		if len(words) == 3 {
			lit, ok := wordLiteral(words[2])
			if !ok {
				return reasonDeltaNotLiteral
			}
			d, err := strconv.ParseInt(strings.TrimSpace(lit), 0, 64)
			if err != nil || d != int64(int32(d)) {
				return reasonBadDelta
			}
			delta = d
		}
		c.emit(insn{op: opIncr, a: c.addName(vn), b: int32(delta)})
		return reasonNone
	case "expr":
		if len(words) == 2 {
			if src, ok := wordLiteral(words[1]); ok {
				// expr {literal}: compile the expression once. A
				// source with a syntax error keeps generic dispatch,
				// which raises the error when the command runs.
				node, err := compileExprAST(src)
				if err != nil {
					return reasonExprSyntax
				}
				c.p.exprs = append(c.p.exprs, node)
				c.emit(insn{op: opExpr, a: int32(len(c.p.exprs) - 1)})
				return reasonNone
			}
		}
		idx, r := c.buildExprTemplate(words[1:])
		if r == reasonNone {
			c.emit(insn{op: opExprTmpl, a: idx})
		}
		return r
	case "while":
		// while {cond} {body} — both literal words (the normal braced
		// spelling). The condition must compile as a typed expression;
		// a condition with a syntax error keeps the generic path, so
		// cmdWhile raises the error when it tests the condition.
		if len(words) != 3 {
			return reasonWhileArity
		}
		condSrc, ok := wordLiteral(words[1])
		if !ok {
			return reasonCondNotLiteral
		}
		bodySrc, ok := wordLiteral(words[2])
		if !ok {
			return reasonBodyNotLiteral
		}
		node, err := compileExprAST(condSrc)
		if err != nil {
			return reasonCondSyntax
		}
		c.p.loops = append(c.p.loops, loopInfo{cond: node, body: c.b.script(bodySrc)})
		c.emit(insn{op: opWhile, a: int32(len(c.p.loops) - 1)})
		return reasonNone
	case "for":
		// for {init} {cond} {next} {body} — all four literal.
		if len(words) != 5 {
			return reasonForArity
		}
		initSrc, ok1 := wordLiteral(words[1])
		condSrc, ok2 := wordLiteral(words[2])
		nextSrc, ok3 := wordLiteral(words[3])
		bodySrc, ok4 := wordLiteral(words[4])
		if !ok1 || !ok2 || !ok3 || !ok4 {
			return reasonForArgNotLiteral
		}
		node, err := compileExprAST(condSrc)
		if err != nil {
			return reasonCondSyntax
		}
		c.p.loops = append(c.p.loops, loopInfo{
			cond: node,
			init: c.b.script(initSrc),
			next: c.b.script(nextSrc),
			body: c.b.script(bodySrc),
		})
		c.emit(insn{op: opFor, a: int32(len(c.p.loops) - 1)})
		return reasonNone
	}
	return reasonNoOpcode
}

// compileGeneric emits one word instruction per word plus the dispatch
// instruction. The dispatch gets an inline cache site when the command
// name is literal.
func (c *progCompiler) compileGeneric(words []word, nameLit bool) {
	for i, w := range words {
		if !c.compileWordOp(w, int32(i)) {
			c.p.words = append(c.p.words, w)
			c.emit(insn{op: opWord, a: int32(len(c.p.words) - 1), c: int32(i)})
		}
	}
	c.needRegs(len(words))
	cacheIdx := int32(-1)
	if nameLit {
		c.p.caches = append(c.p.caches, dispatchCache{})
		cacheIdx = int32(len(c.p.caches) - 1)
	}
	c.emit(insn{op: opInvoke, a: 0, b: int32(len(words)), c: cacheIdx})
}

// compileWordOp emits the cheapest instruction that computes w into
// register dst, or reports false when only the generic substitution
// path (opWord) can handle it.
func (c *progCompiler) compileWordOp(w word, dst int32) bool {
	c.needRegs(int(dst) + 1)
	if len(w.tokens) != 1 {
		return false
	}
	t := w.tokens[0]
	switch t.kind {
	case tokText:
		// Interning numeric literals here means e.g. `set d 2` stores a
		// typed int, so later $d reads skip the string parse entirely.
		c.emit(insn{op: opConst, a: c.addConst(internValue(t.text)), c: dst})
		return true
	case tokVar:
		if t.hasIdx {
			return false
		}
		c.emit(insn{op: opVar, a: c.addName(t.text), c: dst})
		return true
	case tokCommand:
		if t.script == nil {
			return false
		}
		c.p.subs = append(c.p.subs, t.script)
		c.emit(insn{op: opScript, a: int32(len(c.p.subs) - 1), c: dst})
		return true
	}
	return false
}

// exprSafeText reports whether literal text can be spliced verbatim
// into reconstructed expression source without changing how the
// expression lexer would read it: no substitution triggers, no word
// or grouping structure, no whitespace.
func exprSafeText(s string) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '$', '[', ']', '{', '}', '"', '\\', ' ', '\t', '\n', '\r', ';':
			return false
		}
	}
	return true
}

// buildExprTemplate compiles a multi-word expr into a reusable typed
// template. The classic command re-joins its substituted arguments and
// re-parses the result on every evaluation; the template instead
// compiles the expression shape once, with each $var as a slot that is
// filled at evaluation time.
//
// The two are equivalent only while every substituted value is a pure
// numeric literal as the expression lexer would scan it
// (pureNumberValue) — any other value could extend into operators,
// barewords, or whole subexpressions under re-parsing — so the
// evaluator (execExprTmpl) verifies purity per slot and bails to the
// classic join-and-parse path otherwise. Words that could change shape
// under reconstruction (braced or quoted words, command substitution,
// array references, escapes, a $var abutting more name characters)
// refuse template compilation outright.
func (c *progCompiler) buildExprTemplate(args []word) (int32, reason) {
	src, r, _, _ := templateSource(args)
	if r != reasonNone {
		return 0, r
	}
	node, err := compileExprAST(src)
	if err != nil {
		return 0, reasonTemplateSyntax
	}
	var vars []string
	node, ok := rewriteTemplateVars(node, &vars)
	if !ok {
		return 0, reasonImpureNode
	}
	t := &exprTemplate{node: node, vars: vars, refs: make([]varRef, len(vars))}
	if bn, ok := node.(*exprBinaryNode); ok {
		if ls, ok := bn.l.(*exprSlotNode); ok {
			if rs, ok := bn.r.(*exprSlotNode); ok {
				t.fastOp, t.fastL, t.fastR = bn.op, ls.idx, rs.idx
			}
		}
	}
	c.p.tmpls = append(c.p.tmpls, t)
	return int32(len(c.p.tmpls) - 1), reasonNone
}

// templateSource reconstructs the expression source of a multi-word
// expr from its argument words. When a word could change shape under
// reconstruction it returns the rule that refused instead, with the
// indexes of the refusing word and token (ExplainScript names them).
func templateSource(args []word) (src string, r reason, wi, ti int) {
	var b strings.Builder
	for wi, w := range args {
		switch {
		case w.form != 0:
			return "", reasonOperandQuoted, wi, 0
		case len(w.tokens) == 0:
			return "", reasonOperandEmpty, wi, 0
		}
		if wi > 0 {
			b.WriteByte(' ')
		}
		for ti, t := range w.tokens {
			switch t.kind {
			case tokText:
				if !exprSafeText(t.text) {
					return "", reasonUnsafeLiteral, wi, ti
				}
				b.WriteString(t.text)
			case tokVar:
				if t.hasIdx {
					return "", reasonArraySlot, wi, ti
				}
				if ti+1 < len(w.tokens) {
					nt := w.tokens[ti+1]
					if nt.kind == tokText && len(nt.text) > 0 &&
						(isVarNameChar(nt.text[0]) || nt.text[0] == '(') {
						// "$a" + "bc" would reconstruct as $abc.
						return "", reasonAbutting, wi, ti
					}
				}
				b.WriteByte('$')
				b.WriteString(t.text)
			default:
				return "", reasonCommandOperand, wi, ti
			}
		}
	}
	return b.String(), reasonNone, 0, 0
}

// rewriteTemplateVars replaces every variable node in a compiled
// expression with a slot node, collecting the variable names in slot
// order. It refuses trees containing nodes whose evaluation is not a
// pure function of the slots (command substitution, quoted words):
// those must not run twice when the evaluator bails to the classic
// path.
func rewriteTemplateVars(n exprNode, vars *[]string) (exprNode, bool) {
	switch t := n.(type) {
	case *exprLit:
		return t, true
	case *exprVarNode:
		if t.tok.hasIdx {
			return nil, false
		}
		*vars = append(*vars, t.tok.text)
		return &exprSlotNode{idx: len(*vars) - 1}, true
	case *exprUnaryNode:
		x, ok := rewriteTemplateVars(t.x, vars)
		if !ok {
			return nil, false
		}
		return &exprUnaryNode{op: t.op, x: x}, true
	case *exprBinaryNode:
		l, ok := rewriteTemplateVars(t.l, vars)
		if !ok {
			return nil, false
		}
		r, ok := rewriteTemplateVars(t.r, vars)
		if !ok {
			return nil, false
		}
		return &exprBinaryNode{op: t.op, l: l, r: r}, true
	case *exprAndOrNode:
		l, ok := rewriteTemplateVars(t.l, vars)
		if !ok {
			return nil, false
		}
		r, ok := rewriteTemplateVars(t.r, vars)
		if !ok {
			return nil, false
		}
		return &exprAndOrNode{isAnd: t.isAnd, l: l, r: r}, true
	case *exprTernaryNode:
		cond, ok := rewriteTemplateVars(t.cond, vars)
		if !ok {
			return nil, false
		}
		thenN, ok := rewriteTemplateVars(t.thenN, vars)
		if !ok {
			return nil, false
		}
		elseN, ok := rewriteTemplateVars(t.elseN, vars)
		if !ok {
			return nil, false
		}
		return &exprTernaryNode{cond: cond, thenN: thenN, elseN: elseN}, true
	case *exprFuncNode:
		args := make([]exprNode, len(t.args))
		for i, a := range t.args {
			ra, ok := rewriteTemplateVars(a, vars)
			if !ok {
				return nil, false
			}
			args[i] = ra
		}
		return &exprFuncNode{name: t.name, args: args}, true
	}
	return nil, false
}

// exprSlotNode reads a pre-fetched template operand. Slots are filled
// before evaluation begins — mirroring the classic command, which
// substitutes every word before parsing — so the node ignores the
// skip depth: the value exists even in a short-circuited operand.
type exprSlotNode struct{ idx int }

func (n *exprSlotNode) eval(ev *exprEvaluator) (exprVal, error) {
	return ev.slots[n.idx], nil
}
