package tcl

import (
	"strconv"
	"strings"

	"wafe/internal/obs"
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
// As Tcl 8 does, the compiler lowers substitutions inline: a word of
// several pieces compiles to its pieces and one concatenation, and a
// [script] word compiles its commands into the enclosing register
// window, each leaving its result in a register. A proc body is
// lowered with its Proc, which gives every variable name the body
// spells out literally a slot in the proc's frames (Proc.slots); the
// body's instructions then address those slots directly.
//
// The compiler is purely syntactic and interpreter-independent, but a
// Program is stored with its Script for one interpreter (Script.owner)
// because it embeds mutable inline dispatch caches.

type op uint8

const (
	// Word instructions: compute one value into a register.
	opConst  op = iota // regs[c] = consts[a]
	opVar              // regs[c] = scalar variable vars[a] (typed read)
	opElem             // regs[c] = element regs[b] of array variable vars[a]
	opConcat           // regs[c] = regs[a : a+b] joined as strings
	opEnter            // enter an inlined [script]: one nesting level deeper
	opLeave            // leave it

	// Dispatch instructions: exactly one terminates every command. d is
	// -1 for a command of the Program's script; an inlined command's
	// dispatch has d = its index in inl and leaves its result in
	// register inl[d].dst. Every dispatch but a dynamic opInvoke has
	// the cache site caches[c].
	opInvoke   // argv = regs[a : a+b] stringified; dispatch via cache site c (-1 = uncached)
	opSet      // vars[a] <- regs[b]; result is the stored value
	opIncr     // vars[a] += b; result is the new value
	opExpr     // result = typed evaluation of exprs[a]
	opExprTmpl // result = typed evaluation of tmpls[a], bailing to classic on impure operands
	opWhile    // loops[a]: while {cond} {body} with pre-compiled cond and pre-parsed body
	opFor      // loops[a]: for {init} {cond} {next} {body}, all pre-compiled
)

type insn struct {
	op         op
	a, b, c, d int32
}

// dispatchCache is one dispatch site's inline cache: the command
// resolved for a literal name, valid while the interpreter's cmdGen
// matches, and the name's dispatch counter, valid for the metrics it
// was taken from (statistics can attach metrics partway through a
// run).
type dispatchCache struct {
	gen uint64
	fn  CommandFunc
	m   *obs.Metrics
	ctr *obs.Counter
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
// slot, plus the variable sites in fetch order. See buildExprTemplate
// for the equivalence argument.
type exprTemplate struct {
	node  exprNode
	sites []varSite
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
// read by ExplainScript), its 1-based line in scr (0 until a profiled
// run first asks, see Program.line), the register an inlined command's
// result goes to, the original parsed command (for the fallback and
// expr-template bail paths) and scr, the script it was parsed from.
type progCmd struct {
	start, end int32
	reason     reason
	line       int32
	dst        int32
	src        *parsedCommand
	scr        *Script
}

// Program is a compiled register-bytecode form of a Script.
type Program struct {
	script *Script
	insns  []insn
	// cmds are the script's commands; inl are the commands of its
	// [script] words, compiled inline.
	cmds []progCmd
	inl  []progCmd

	consts []Value
	// vars are the variable sites: a slot in a proc body, elsewhere a
	// name. A proc body's Program runs only in that proc's frames.
	vars   []varSite
	exprs  []exprNode
	tmpls  []*exprTemplate
	loops  []loopInfo
	caches []dispatchCache

	// nregs is the register window size: the registers the deepest
	// word of any command uses.
	nregs int
}

// program returns s's Program on this interpreter. A Script has one
// owner: the first run of a Script from Compile, or of one that ran on
// another interpreter, lowers it again for the interpreter running it.
func (in *Interp) program(s *Script) *Program {
	if s.owner != in || s.prog == nil {
		s.owner, s.prog = in, in.bld.program(s, nil)
	}
	return s.prog
}

// compileProgram lowers s into a new Program for this interpreter.
func (in *Interp) compileProgram(s *Script) *Program { return in.bld.program(s, nil) }

// program lowers every command of s into a Program from b's storage;
// with proc non-nil, s is proc's body. Specialized opcodes are only
// emitted while set/incr/expr are known to be the builtins
// (specialGen == specialBase); see the interp fields.
func (b *builder) program(s *Script, proc *Proc) *Program {
	p := b.newProgram(s)
	c := progCompiler{b: b, p: p, proc: proc, specialize: b.in.specialGen == b.in.specialBase}
	for i := range s.cmds {
		c.command(s, &s.cmds[i], 0, -1)
	}
	return p
}

type progCompiler struct {
	// b builds the loop scripts of specialized loops, into the same
	// storage as the Program; compilation is otherwise
	// interpreter-independent. The recursion ends because a loop script
	// is a strict substring of the command being compiled.
	b *builder
	p *Program
	// proc, when non-nil, owns the body being lowered: variable sites
	// get its slots.
	proc       *Proc
	specialize bool
}

func (c *progCompiler) emit(i insn) { c.p.insns = append(c.p.insns, i) }

// use records that the Program writes registers below n.
func (c *progCompiler) use(n int32) {
	if int(n) > c.p.nregs {
		c.p.nregs = int(n)
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

func (c *progCompiler) emitConst(v Value, dst int32) {
	c.p.consts = append(c.p.consts, v)
	c.emit(insn{op: opConst, a: int32(len(c.p.consts) - 1), c: dst})
}

// site returns the variable site of name, adding one.
func (c *progCompiler) site(name string) int32 {
	for i := range c.p.vars {
		if c.p.vars[i].name == name {
			return int32(i)
		}
	}
	slot := int32(-1)
	if c.proc != nil {
		slot = c.proc.slot(name)
	}
	c.p.vars = append(c.p.vars, varSite{name: name, slot: slot})
	return int32(len(c.p.vars) - 1)
}

// cache adds a dispatch cache site.
func (c *progCompiler) cache() int32 {
	c.p.caches = append(c.p.caches, dispatchCache{})
	return int32(len(c.p.caches) - 1)
}

// command compiles cmd, parsed from scr, with its words in registers
// from base on. A command of the Program's own script (dst < 0) ends
// with its dispatch; an inlined one leaves its result in register dst.
func (c *progCompiler) command(scr *Script, cmd *parsedCommand, base, dst int32) {
	words := cmd.words
	if len(words) == 0 {
		return
	}
	pc := progCmd{start: int32(len(c.p.insns)), dst: dst, src: cmd, scr: scr}
	d := int32(-1)
	if dst >= 0 {
		// Reserve the record: the words may inline commands of their
		// own.
		d = int32(len(c.p.inl))
		c.p.inl = append(c.p.inl, progCmd{})
	}
	name, nameLit := wordLiteral(words[0])
	if nameLit && c.proc != nil {
		c.declare(name, words)
	}
	switch {
	case !nameLit:
		pc.reason = reasonDynamicName
	case !c.specialize:
		pc.reason = reasonRebound
	default:
		pc.reason = c.trySpecialize(name, cmd, base, d)
	}
	if pc.reason != reasonNone {
		c.compileGeneric(words, nameLit, base, d)
	}
	pc.end = int32(len(c.p.insns))
	if d >= 0 {
		c.p.inl[d] = pc
	} else {
		c.p.cmds = append(c.p.cmds, pc)
	}
}

// declare gives slots to the literal names a set, incr, global or
// upvar command of a proc body binds, so that they live in the frame's
// slots even where the command is dispatched generically.
func (c *progCompiler) declare(name string, words []word) {
	var targets []word
	switch name {
	case "set", "incr":
		if len(words) > 1 {
			targets = words[1:2]
		}
	case "global":
		targets = words[1:]
	case "upvar":
		rest := words[1:]
		if len(rest)%2 == 1 {
			rest = rest[1:]
		}
		for i := 1; i < len(rest); i += 2 {
			targets = append(targets, rest[i])
		}
	}
	for _, w := range targets {
		if lit, ok := wordLiteral(w); ok {
			base, _, _ := splitArrayRef(lit)
			c.proc.slot(base)
		}
	}
}

// trySpecialize emits a dedicated instruction sequence for the hot
// command shapes and returns reasonNone. When the shape does not
// qualify it emits nothing and returns the rule that refused it,
// leaving the command to generic dispatch.
func (c *progCompiler) trySpecialize(name string, cmd *parsedCommand, base, d int32) reason {
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
		c.word(&words[2], base, base+1)
		c.emit(insn{op: opSet, a: c.site(vn), b: base, c: c.cache(), d: d})
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
		c.emit(insn{op: opIncr, a: c.site(vn), b: int32(delta), c: c.cache(), d: d})
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
				c.bindExpr(node)
				c.p.exprs = append(c.p.exprs, node)
				c.emit(insn{op: opExpr, a: int32(len(c.p.exprs) - 1), c: c.cache(), d: d})
				return reasonNone
			}
		}
		idx, r := c.buildExprTemplate(words[1:])
		if r == reasonNone {
			c.emit(insn{op: opExprTmpl, a: idx, c: c.cache(), d: d})
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
		c.bindExpr(node)
		c.p.loops = append(c.p.loops, loopInfo{cond: node, body: c.loopScript(bodySrc)})
		c.emit(insn{op: opWhile, a: int32(len(c.p.loops) - 1), c: c.cache(), d: d})
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
		c.bindExpr(node)
		c.p.loops = append(c.p.loops, loopInfo{
			cond: node,
			init: c.loopScript(initSrc),
			next: c.loopScript(nextSrc),
			body: c.loopScript(bodySrc),
		})
		c.emit(insn{op: opFor, a: int32(len(c.p.loops) - 1), c: c.cache(), d: d})
		return reasonNone
	}
	return reasonNoOpcode
}

// loopScript builds a specialized loop's script and lowers it with the
// Program: in a proc body, with the same slots.
func (c *progCompiler) loopScript(src string) *Script {
	s := c.b.parse(src)
	s.owner, s.prog = c.b.in, c.b.program(s, c.proc)
	return s
}

// bindExpr gives the variables of an expression compiled for this
// Program their sites: in a proc body, the slots of their names.
func (c *progCompiler) bindExpr(n exprNode) {
	if c.proc == nil {
		return
	}
	switch t := n.(type) {
	case *exprVarNode:
		if t.tok.hasIdx {
			c.proc.slot(t.tok.text)
		} else {
			t.site.slot = c.proc.slot(t.tok.text)
		}
	case *exprUnaryNode:
		c.bindExpr(t.x)
	case *exprBinaryNode:
		c.bindExpr(t.l)
		c.bindExpr(t.r)
	case *exprAndOrNode:
		c.bindExpr(t.l)
		c.bindExpr(t.r)
	case *exprTernaryNode:
		c.bindExpr(t.cond)
		c.bindExpr(t.thenN)
		if t.elseN != nil {
			c.bindExpr(t.elseN)
		}
	case *exprFuncNode:
		for _, a := range t.args {
			c.bindExpr(a)
		}
	case *exprErrNode:
		if t.pre != nil {
			c.bindExpr(t.pre)
		}
	}
}

// compileGeneric emits the words into registers base on, then the
// dispatch instruction. The dispatch gets an inline cache site when
// the command name is literal.
func (c *progCompiler) compileGeneric(words []word, nameLit bool, base, d int32) {
	n := int32(len(words))
	for i := range words {
		c.word(&words[i], base+int32(i), base+n)
	}
	cacheIdx := int32(-1)
	if nameLit {
		cacheIdx = c.cache()
	}
	c.emit(insn{op: opInvoke, a: base, b: n, c: cacheIdx, d: d})
}

// word emits the instructions that compute w into register dst, using
// the registers from top on for its pieces.
func (c *progCompiler) word(w *word, dst, top int32) {
	c.use(dst + 1)
	switch n := int32(len(w.tokens)); n {
	case 0:
		c.emitConst(Value{}, dst)
	case 1:
		c.token(&w.tokens[0], dst, top, true)
	default:
		for i := range w.tokens {
			c.token(&w.tokens[i], top+int32(i), top+n, false)
		}
		c.emit(insn{op: opConcat, a: top, b: n, c: dst})
	}
}

// token emits the instructions that compute t into register dst. A
// whole word's literal is interned, so that e.g. `set d 2` stores a
// typed int and later $d reads skip the string parse entirely.
func (c *progCompiler) token(t *token, dst, top int32, whole bool) {
	c.use(dst + 1)
	switch t.kind {
	case tokText:
		if whole {
			c.emitConst(internValue(t.text), dst)
		} else {
			c.emitConst(strVal(t.text), dst)
		}
	case tokVar:
		if !t.hasIdx {
			c.emit(insn{op: opVar, a: c.site(t.text), c: dst})
			return
		}
		c.word(&word{tokens: t.index}, top, top+1)
		c.emit(insn{op: opElem, a: c.site(t.text), b: top, c: dst})
	case tokCommand:
		c.inline(t, dst, top)
	}
}

// inline compiles the [script] of t into this Program, its commands'
// words in the registers from top on and its result in register dst.
// opEnter and opLeave keep the nesting level the script would have run
// at on its own.
func (c *progCompiler) inline(t *token, dst, top int32) {
	s := t.script
	c.emit(insn{op: opEnter})
	if len(s.cmds) == 0 {
		c.emitConst(Value{}, dst)
	}
	for i := range s.cmds {
		c.command(s, &s.cmds[i], top, dst)
	}
	c.emit(insn{op: opLeave})
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
	t := &exprTemplate{node: node, sites: make([]varSite, len(vars))}
	for i, name := range vars {
		t.sites[i] = varSite{name: name, slot: -1}
		if c.proc != nil {
			t.sites[i].slot = c.proc.slot(name)
		}
	}
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
