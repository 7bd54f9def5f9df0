package tcl

import (
	"math"
	"strconv"
	"strings"
)

// This file compiles expressions to a small AST so that hot
// expressions (loop tests, callback arithmetic) parse once. The
// compiler is purely syntactic — it never touches the interpreter. A
// syntax error does not abandon the tree: the operand that fails to
// parse becomes an error leaf (exprErrNode), and each enclosing node
// keeps what was parsed before it. Every node evaluates its children
// in source order, so the partial tree runs the substitutions, and
// raises any runtime error, that come before the syntax error in the
// source, then raises the syntax error.

type exprNode interface {
	eval(ev *exprEvaluator) (exprVal, error)
}

// exprEvaluator carries evaluation state: the interpreter for
// substitutions and the skip depth for short-circuited operands.
type exprEvaluator struct {
	in *Interp
	// skipDepth > 0 means the operand being evaluated will not be used
	// (short-circuited && / || or the untaken ternary branch); variable
	// and command substitution is suppressed and operator errors are
	// ignored.
	skipDepth int
	// slots holds the pre-fetched operand values of an expr template
	// (exprSlotNode); nil outside template evaluation.
	slots []Value
}

type exprLit struct{ v exprVal }

func (n *exprLit) eval(*exprEvaluator) (exprVal, error) { return n.v, nil }

type exprVarNode struct {
	tok token
	// site is the variable's site. An AST compiled into a proc body's
	// Program has the slots of that proc (progCompiler.bindExpr).
	site varSite
}

func (n *exprVarNode) eval(ev *exprEvaluator) (exprVal, error) {
	if ev.skipDepth > 0 {
		return intVal(0), nil
	}
	if n.tok.kind == tokVar && !n.tok.hasIdx {
		// Typed fast path: a plain scalar in the current frame hands
		// its machine representation straight to the evaluator. Arrays
		// and missing variables fall through to substToken, which
		// raises the classic error messages. A lone $ is a tokText
		// token: a literal, never a variable.
		if v := ev.in.siteScalar(&n.site); v != nil {
			return coerce(v.val)
		}
	}
	s, err := ev.in.substToken(n.tok)
	if err != nil {
		return exprVal{}, err
	}
	return coerce(strVal(s))
}

type exprCmdNode struct {
	script *Script

	// Single-expr fast path: when the bracketed script is exactly one
	// command that compiled to an expr template, the template can be
	// evaluated directly, skipping a full trip through the script
	// machinery (nesting bookkeeping, program lookup, instruction
	// dispatch) per evaluation. Resolved lazily per interpreter; owner
	// guards against a node ever being shared across interpreters.
	owner *Interp
	tmpl  *exprTemplate
	tcmd  *progCmd
	tca   *dispatchCache
}

func (n *exprCmdNode) eval(ev *exprEvaluator) (exprVal, error) {
	if ev.skipDepth > 0 {
		return intVal(0), nil
	}
	in := ev.in
	if n.owner != in {
		n.owner, n.tmpl, n.tcmd, n.tca = in, nil, nil, nil
		p := in.program(n.script)
		if len(p.cmds) == 1 {
			c := &p.cmds[0]
			if ins := p.insns[c.start]; c.end-c.start == 1 && ins.op == opExprTmpl {
				n.tmpl, n.tcmd, n.tca = p.tmpls[ins.a], c, &p.caches[ins.c]
			}
		}
	}
	// The direct path is valid only under exactly the conditions where
	// execScript would have reached the same opExprTmpl with nothing
	// observable in between: no oracle engine, no profiler (which
	// records the expr site), expr still the builtin, and an enclosing
	// evaluation already on the stack
	// (at nesting 0 the inner script would run at level 1 and record
	// its own errorInfo frame, which only evalScriptV reproduces).
	// A template AST contains no command nodes, so skipping the
	// nesting increment cannot unbound recursion.
	if n.tmpl != nil && in.oracle == nil && in.prof == nil &&
		in.nesting >= 1 && in.specialGen == in.specialBase {
		v, _, _, err := in.execExprTmpl(n.tmpl, n.tcmd, n.tca)
		if err != nil {
			return exprVal{}, err
		}
		return coerce(v)
	}
	v, err := in.evalScriptV(n.script)
	if err != nil {
		return exprVal{}, err
	}
	return coerce(v)
}

// exprQuotedNode is a "..." word; it is substituted even in skipped
// operands, and substitution errors propagate.
type exprQuotedNode struct{ w word }

func (n *exprQuotedNode) eval(ev *exprEvaluator) (exprVal, error) {
	s, err := ev.in.substWord(n.w)
	if err != nil {
		return exprVal{}, err
	}
	return strVal(s), nil
}

type exprUnaryNode struct {
	op byte
	x  exprNode
}

func (n *exprUnaryNode) eval(ev *exprEvaluator) (exprVal, error) {
	v, err := n.x.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	return applyUnary(n.op, v)
}

type exprBinaryNode struct {
	op   string
	l, r exprNode
}

func (n *exprBinaryNode) eval(ev *exprEvaluator) (exprVal, error) {
	l, err := n.l.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	r, err := n.r.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	if l.kind == vInt && r.kind == vInt {
		// A cached spelling on a vInt is always canonical (Value.s), so
		// the machine words can be combined directly.
		if v, ok := intBinaryFast(n.op, l.i, r.i); ok {
			return v, nil
		}
	}
	v, err := applyBinary(n.op, l, r)
	if err != nil {
		if ev.skipDepth > 0 {
			return intVal(0), nil
		}
		return exprVal{}, err
	}
	return v, nil
}

type exprAndOrNode struct {
	isAnd bool
	l, r  exprNode
}

func (n *exprAndOrNode) eval(ev *exprEvaluator) (exprVal, error) {
	l, err := n.l.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	lb, err := l.asBool()
	if err != nil {
		return exprVal{}, err
	}
	decided := (n.isAnd && !lb) || (!n.isAnd && lb)
	if decided {
		ev.skipDepth++
		_, err := n.r.eval(ev)
		ev.skipDepth--
		if err != nil {
			return exprVal{}, err
		}
		return intVal(b2i(lb)), nil
	}
	r, err := n.r.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	rb, err := r.asBool()
	if err != nil {
		return exprVal{}, err
	}
	if n.isAnd {
		return intVal(b2i(lb && rb)), nil
	}
	return intVal(b2i(lb || rb)), nil
}

// exprTernaryNode evaluates both branches, the untaken one in skip
// mode, as a parser that evaluates while it parses must: it cannot
// skip over unparsed text.
type exprTernaryNode struct {
	cond, thenN, elseN exprNode
}

func (n *exprTernaryNode) eval(ev *exprEvaluator) (exprVal, error) {
	c, err := n.cond.eval(ev)
	if err != nil {
		return exprVal{}, err
	}
	b, err := c.asBool()
	if err != nil {
		return exprVal{}, err
	}
	if !b {
		ev.skipDepth++
	}
	tv, err := n.thenN.eval(ev)
	if !b {
		ev.skipDepth--
	}
	if err != nil {
		return exprVal{}, err
	}
	if b {
		ev.skipDepth++
	}
	fv, err := n.elseN.eval(ev)
	if b {
		ev.skipDepth--
	}
	if err != nil {
		return exprVal{}, err
	}
	if b {
		return tv, nil
	}
	return fv, nil
}

type exprFuncNode struct {
	name string
	args []exprNode
}

func (n *exprFuncNode) eval(ev *exprEvaluator) (exprVal, error) {
	args := make([]exprVal, len(n.args))
	for i, a := range n.args {
		v, err := a.eval(ev)
		if err != nil {
			return exprVal{}, err
		}
		args[i] = v
	}
	return applyFunc(n.name, args)
}

// exprErrNode is the error leaf of a source with a syntax error. It
// evaluates pre, the complete operand parsed just before the error
// (nil if none), then raises err, in a skipped operand too.
type exprErrNode struct {
	pre exprNode
	err *Error
}

func (n *exprErrNode) eval(ev *exprEvaluator) (exprVal, error) {
	if n.pre != nil {
		if _, err := n.pre.eval(ev); err != nil {
			return exprVal{}, err
		}
	}
	return exprVal{}, n.err
}

// applyUnary applies a unary operator; shared between the evaluator
// and constant folding so behavior cannot drift.
func applyUnary(op byte, v exprVal) (exprVal, error) {
	switch op {
	case '-':
		v, err := coerce(v)
		if err != nil {
			return exprVal{}, err
		}
		switch v.kind {
		case vInt:
			return intVal(-v.i), nil
		case vFloat:
			return floatVal(-v.f), nil
		}
		return exprVal{}, NewError("can't negate non-numeric %q", v.s)
	case '+':
		v, err := coerce(v)
		if err != nil {
			return exprVal{}, err
		}
		if !v.isNumeric() {
			return exprVal{}, NewError("can't use non-numeric string %q as operand of \"+\"", v.s)
		}
		return v, nil
	case '!':
		b, err := v.asBool()
		if err != nil {
			c, cerr := coerce(v)
			if cerr != nil {
				return exprVal{}, err
			}
			b2, err2 := c.asBool()
			if err2 != nil {
				return exprVal{}, err
			}
			b = b2
		}
		return intVal(b2i(!b)), nil
	case '~':
		v, err := coerce(v)
		if err != nil {
			return exprVal{}, err
		}
		if v.kind != vInt {
			return exprVal{}, NewError("can't use non-integer as operand of \"~\"")
		}
		return intVal(^v.i), nil
	}
	return exprVal{}, NewError("unknown unary operator %q", string(op))
}

// peekExprOp returns the operator starting at pos (which must already
// be past any whitespace), or "".
func peekExprOp(src string, pos int) string {
	if pos >= len(src) {
		return ""
	}
	if pos+2 <= len(src) {
		switch two := src[pos : pos+2]; two {
		case "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "**":
			return two
		}
	}
	switch c := src[pos]; c {
	case '+', '-', '*', '/', '%', '<', '>', '&', '|', '^', '?', ':', '!', '~':
		return string(c)
	}
	// word operators eq/ne (string comparison)
	if pos+2 <= len(src) {
		w := src[pos : pos+2]
		if (w == "eq" || w == "ne") && (pos+2 == len(src) || !isVarNameChar(src[pos+2])) {
			return w
		}
	}
	return ""
}

// scanExprNumber scans a numeric literal starting at pos and returns
// the value and the position after it.
func scanExprNumber(src string, pos int) (exprVal, int, error) {
	start := pos
	n := len(src)
	isFloat := false
	if pos+1 < n && src[pos] == '0' && (src[pos+1] == 'x' || src[pos+1] == 'X') {
		pos += 2
		for pos < n && hexVal(src[pos]) >= 0 {
			pos++
		}
		iv, err := strconv.ParseInt(src[start:pos], 0, 64)
		if err != nil {
			if isRangeErr(err) {
				return exprVal{}, pos, errIntTooLarge()
			}
			return exprVal{}, pos, NewError("bad hex number %q", src[start:pos])
		}
		return intVal(iv), pos, nil
	}
	for pos < n {
		c := src[pos]
		if c >= '0' && c <= '9' {
			pos++
			continue
		}
		if c == '.' {
			isFloat = true
			pos++
			continue
		}
		if c == 'e' || c == 'E' {
			// exponent
			if pos+1 < n && (src[pos+1] == '+' || src[pos+1] == '-' || (src[pos+1] >= '0' && src[pos+1] <= '9')) {
				isFloat = true
				pos++
				if src[pos] == '+' || src[pos] == '-' {
					pos++
				}
				continue
			}
			break
		}
		break
	}
	text := src[start:pos]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return exprVal{}, pos, NewError("bad number %q", text)
		}
		return floatVal(f), pos, nil
	}
	// Leading zero means octal in classic Tcl.
	if len(text) > 1 && text[0] == '0' {
		iv, err := strconv.ParseInt(text, 8, 64)
		if err == nil {
			return intVal(iv), pos, nil
		}
		if isRangeErr(err) {
			return exprVal{}, pos, errIntTooLarge()
		}
	}
	iv, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		if isRangeErr(err) {
			return exprVal{}, pos, errIntTooLarge()
		}
		return exprVal{}, pos, NewError("bad number %q", text)
	}
	return intVal(iv), pos, nil
}

// exprCompiler builds an exprNode tree from source without touching
// the interpreter.
type exprCompiler struct {
	src string
	pos int
	// err is the first syntax error. Once it is set, every compile
	// function returns at once, leaving pos at the error, and wraps
	// what it has parsed around the partial child that ends in the
	// error leaf.
	err error
	// lenient accepts unknown barewords as string literals instead of
	// raising an error. The evaluating path never sets it; CheckExpr
	// uses it for static syntax checking, where a bareword is only a
	// runtime concern, not a syntax error.
	lenient bool
}

func (c *exprCompiler) atEnd() bool { return c.pos >= len(c.src) }

func (c *exprCompiler) skipSpace() {
	for !c.atEnd() {
		ch := c.src[c.pos]
		if ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r' {
			c.pos++
			continue
		}
		return
	}
}

func (c *exprCompiler) peekOp() string {
	c.skipSpace()
	return peekExprOp(c.src, c.pos)
}

func (c *exprCompiler) consume(op string) {
	c.skipSpace()
	c.pos += len(op)
}

// fail records err as the syntax error and returns the leaf that
// raises it after evaluating pre. The leaf raises a plain Tcl error
// whatever err's type; c.err keeps the type, so that CheckExpr can
// report a *ParseError's own offset.
func (c *exprCompiler) fail(pre exprNode, err error) exprNode {
	c.err = err
	te, ok := err.(*Error)
	if !ok {
		te = &Error{Code: CodeError, Value: err.Error()}
	}
	return &exprErrNode{pre: pre, err: te}
}

// parser returns a parser positioned at the compiler's offset, for the
// operands that are Tcl words.
func (c *exprCompiler) parser() *parser {
	p := newParser(c.src)
	p.pos = c.pos
	return p
}

// compileExprAST compiles a full expression. On a syntax error,
// trailing junk included, it returns the error together with a partial
// tree whose evaluation raises it.
func compileExprAST(src string) (exprNode, error) {
	c := &exprCompiler{src: src}
	n := c.compileTernary()
	if c.err == nil {
		c.skipSpace()
		if !c.atEnd() {
			n = c.fail(n, NewError("syntax error in expression %q", src))
		}
	}
	return n, c.err
}

func (c *exprCompiler) compileTernary() exprNode {
	cond := c.compileBinary(0)
	if c.err != nil || c.peekOp() != "?" {
		return cond
	}
	c.consume("?")
	// A partial then-branch always raises, so elseN stays nil only
	// where it is never reached.
	n := &exprTernaryNode{cond: cond, thenN: c.compileTernary()}
	if c.err != nil {
		return n
	}
	if c.peekOp() != ":" {
		n.elseN = c.fail(nil, NewError("missing : in ternary expression"))
		return n
	}
	c.consume(":")
	n.elseN = c.compileTernary()
	return n
}

func (c *exprCompiler) compileBinary(level int) exprNode {
	if level >= len(precLevels) {
		return c.compileUnary()
	}
	left := c.compileBinary(level + 1)
	for c.err == nil {
		op := c.peekOp()
		found := false
		for _, cand := range precLevels[level] {
			if op == cand {
				found = true
				break
			}
		}
		if !found {
			return left
		}
		c.consume(op)
		right := c.compileBinary(level + 1)
		if op == "&&" || op == "||" {
			left = &exprAndOrNode{isAnd: op == "&&", l: left, r: right}
		} else {
			left = foldBinary(op, left, right)
		}
	}
	return left
}

func (c *exprCompiler) compileUnary() exprNode {
	c.skipSpace()
	if c.atEnd() {
		return c.fail(nil, NewError("premature end of expression"))
	}
	switch op := c.src[c.pos]; op {
	case '-', '+', '!', '~':
		c.pos++
		return foldUnary(op, c.compileUnary())
	}
	return c.compilePrimary()
}

// compilePrimary runs only past compileUnary's end-of-input check.
func (c *exprCompiler) compilePrimary() exprNode {
	ch := c.src[c.pos]
	switch {
	case ch == '(':
		c.pos++
		n := c.compileTernary()
		if c.err != nil {
			return n
		}
		c.skipSpace()
		if c.atEnd() || c.src[c.pos] != ')' {
			return c.fail(n, NewError("missing close parenthesis"))
		}
		c.pos++
		return n
	case ch == '$':
		p := c.parser()
		t, err := p.parseVarToken()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		return &exprVarNode{tok: t, site: varSite{name: t.text, slot: -1}}
	case ch == '[':
		p := c.parser()
		t, err := p.parseCommandToken()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		return &exprCmdNode{script: t.script}
	case ch == '"':
		p := c.parser()
		w, err := p.parseQuotedWordForExpr()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		if len(w.tokens) == 0 {
			return &exprLit{v: strVal("")}
		}
		if len(w.tokens) == 1 && w.tokens[0].kind == tokText {
			return &exprLit{v: strVal(w.tokens[0].text)}
		}
		return &exprQuotedNode{w: w}
	case ch == '{':
		p := c.parser()
		s, err := p.parseBracedWordForExpr()
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = p.pos
		return &exprLit{v: strVal(s)}
	case ch >= '0' && ch <= '9' || ch == '.':
		// On a bad number pos stays at its first character, where
		// CheckExpr reports it.
		v, np, err := scanExprNumber(c.src, c.pos)
		if err != nil {
			return c.fail(nil, err)
		}
		c.pos = np
		return &exprLit{v: v}
	default:
		start := c.pos
		for !c.atEnd() && isVarNameChar(c.src[c.pos]) {
			c.pos++
		}
		if c.pos == start {
			return c.fail(nil, NewError("syntax error in expression near %q", c.src[c.pos:]))
		}
		name := c.src[start:c.pos]
		c.skipSpace()
		if !c.atEnd() && c.src[c.pos] == '(' {
			return c.compileFunc(name)
		}
		switch strings.ToLower(name) {
		case "true", "yes", "on":
			return &exprLit{v: intVal(1)}
		case "false", "no", "off":
			return &exprLit{v: intVal(0)}
		case "inf":
			return &exprLit{v: floatVal(math.Inf(1))}
		case "nan":
			return &exprLit{v: floatVal(math.NaN())}
		}
		if c.lenient {
			return &exprLit{v: strVal(name)}
		}
		return c.fail(nil, NewError("unknown function or bareword %q in expression", name))
	}
}

// CheckExpr statically checks the syntax of an expression source. It
// is lenient about barewords (which may be legal strings at runtime)
// but rejects structural errors: unbalanced parentheses, missing
// operands, a ? without its :, trailing junk. On failure it returns a
// *ParseError whose offset points at the first unparsable character.
func CheckExpr(src string) error {
	c := &exprCompiler{src: src, lenient: true}
	c.compileTernary()
	if c.err != nil {
		if pe, ok := c.err.(*ParseError); ok {
			return pe
		}
		return &ParseError{Msg: "syntax error in expression", Off: c.pos}
	}
	c.skipSpace()
	if !c.atEnd() {
		return &ParseError{Msg: "extra tokens after expression", Off: c.pos}
	}
	return nil
}

func (c *exprCompiler) compileFunc(name string) exprNode {
	c.pos++ // consume (
	var args []exprNode
	c.skipSpace()
	if !c.atEnd() && c.src[c.pos] == ')' {
		c.pos++
		return foldFunc(name, args)
	}
	for {
		args = append(args, c.compileTernary())
		if c.err != nil {
			break
		}
		c.skipSpace()
		if c.atEnd() {
			args = append(args, c.fail(nil, NewError("missing ) in function call")))
			break
		}
		if c.src[c.pos] == ',' {
			c.pos++
			continue
		}
		if c.src[c.pos] == ')' {
			c.pos++
			return foldFunc(name, args)
		}
		args = append(args, c.fail(nil, NewError("syntax error in function arguments")))
		break
	}
	// The last argument raises the syntax error, so the function is
	// never applied.
	return &exprFuncNode{name: name, args: args}
}

// foldUnary, foldBinary and foldFunc fold constant subtrees at compile
// time. Folding only happens when application succeeds — a folding
// error (divide by zero, non-numeric operand) keeps the node so the
// error is raised (or skipped) at evaluation time like before.
func foldUnary(op byte, x exprNode) exprNode {
	if lit, ok := x.(*exprLit); ok {
		if v, err := applyUnary(op, lit.v); err == nil {
			return &exprLit{v: v}
		}
	}
	return &exprUnaryNode{op: op, x: x}
}

func foldBinary(op string, l, r exprNode) exprNode {
	ll, lok := l.(*exprLit)
	rr, rok := r.(*exprLit)
	if lok && rok {
		if v, err := applyBinary(op, ll.v, rr.v); err == nil {
			return &exprLit{v: v}
		}
	}
	return &exprBinaryNode{op: op, l: l, r: r}
}

func foldFunc(name string, args []exprNode) exprNode {
	vals := make([]exprVal, len(args))
	for i, a := range args {
		lit, ok := a.(*exprLit)
		if !ok {
			return &exprFuncNode{name: name, args: args}
		}
		vals[i] = lit.v
	}
	if v, err := applyFunc(name, vals); err == nil {
		return &exprLit{v: v}
	}
	return &exprFuncNode{name: name, args: args}
}

func (in *Interp) compileExprCached(s string) exprNode {
	// A syntax error needs no handling here: the tree raises it when
	// evaluated.
	if in.exprCache == nil || len(s) > maxCachedSrcLen {
		n, _ := compileExprAST(s)
		return n
	}
	if v, ok := in.exprCache.get(s); ok {
		if m := in.metrics; m != nil {
			m.Tcl.ExprCacheHits.Inc()
		}
		return v.(exprNode)
	}
	if m := in.metrics; m != nil {
		m.Tcl.ExprCacheMisses.Inc()
	}
	n, _ := compileExprAST(s)
	in.exprCache.put(s, n)
	return n
}
