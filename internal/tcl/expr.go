package tcl

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ExprEval evaluates a Tcl expression string. Variable ($name) and
// command ([cmd]) references inside the expression are resolved against
// the interpreter, which is what makes braced expr arguments work:
// expr {$i < 10}.
//
// Expressions compile once to an AST cached per source string. A
// source with a syntax error compiles to a tree that ends in an error
// leaf, so its substitution side effects, and any runtime error met
// before the syntax error, surface in source order.
func (in *Interp) ExprEval(s string) (string, error) {
	n := in.compileExprCached(s)
	ev := in.acquireEval()
	v, err := n.eval(ev)
	in.releaseEval(ev)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// ExprBool evaluates an expression and interprets the result as a
// boolean (used by if, while, for), reading the truth value straight
// off the typed result.
func (in *Interp) ExprBool(s string) (bool, error) {
	n := in.compileExprCached(s)
	ev := in.acquireEval()
	v, err := n.eval(ev)
	in.releaseEval(ev)
	if err != nil {
		return false, err
	}
	return v.asBool()
}

// ParseInt converts a decimal integer word, allowing surrounding
// white space, with Tcl's message on failure.
func ParseInt(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, NewError("expected integer but got %q", s)
	}
	return n, nil
}

// ParseFloat converts a floating-point word, allowing surrounding
// white space, with Tcl's message on failure.
func ParseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, NewError("expected floating-point number but got %q", s)
	}
	return f, nil
}

// ParseBool interprets a Tcl boolean string: numbers (non-zero = true)
// or the words true/false/yes/no/on/off.
func ParseBool(s string) (bool, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	switch t {
	case "1", "true", "yes", "on", "t", "y":
		return true, nil
	case "0", "false", "no", "off", "f", "n":
		return false, nil
	}
	if iv, err := strconv.ParseInt(t, 0, 64); err == nil {
		return iv != 0, nil
	} else if isRangeErr(err) {
		return false, errIntTooLarge()
	}
	if fv, err := strconv.ParseFloat(t, 64); err == nil {
		return fv != 0, nil
	}
	return false, NewError("expected boolean value but got %q", s)
}

// binary operator precedence levels, low to high.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!=", "eq", "ne"},
	{"<", ">", "<=", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
	{"**"},
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// intBinaryFast is the integer arithmetic of the binary operators.
// applyBinary calls it when both operands are integers; the evaluator
// and the VM call it first, skipping applyBinary's operand coercion. It
// reports ok=false for everything it does not handle — eq, ne, ** and
// every error case (divide by zero) — which applyBinary then handles.
func intBinaryFast(op string, a, b int64) (exprVal, bool) {
	if len(op) == 1 {
		switch op[0] {
		case '+':
			return intVal(a + b), true
		case '-':
			return intVal(a - b), true
		case '*':
			return intVal(a * b), true
		case '/':
			if b == 0 {
				return exprVal{}, false
			}
			// Tcl integer division truncates toward negative infinity.
			q := a / b
			if (a%b != 0) && ((a < 0) != (b < 0)) {
				q--
			}
			return intVal(q), true
		case '%':
			if b == 0 {
				return exprVal{}, false
			}
			m := a % b
			if m != 0 && ((m < 0) != (b < 0)) {
				m += b
			}
			return intVal(m), true
		case '<':
			return intVal(b2i(a < b)), true
		case '>':
			return intVal(b2i(a > b)), true
		case '&':
			return intVal(a & b), true
		case '|':
			return intVal(a | b), true
		case '^':
			return intVal(a ^ b), true
		}
		return exprVal{}, false
	}
	switch op {
	case "==":
		return intVal(b2i(a == b)), true
	case "!=":
		return intVal(b2i(a != b)), true
	case "<=":
		return intVal(b2i(a <= b)), true
	case ">=":
		return intVal(b2i(a >= b)), true
	case "<<":
		return intVal(a << uint(b)), true
	case ">>":
		return intVal(a >> uint(b)), true
	}
	return exprVal{}, false
}

func applyBinary(op string, l, r exprVal) (exprVal, error) {
	switch op {
	case "eq":
		return intVal(b2i(l.String() == r.String())), nil
	case "ne":
		return intVal(b2i(l.String() != r.String())), nil
	}
	lc, err := coerce(l)
	if err != nil {
		return exprVal{}, err
	}
	rc, err := coerce(r)
	if err != nil {
		return exprVal{}, err
	}
	// String comparison when either side is non-numeric.
	if !lc.isNumeric() || !rc.isNumeric() {
		ls, rs := l.String(), r.String()
		switch op {
		case "==":
			return intVal(b2i(ls == rs)), nil
		case "!=":
			return intVal(b2i(ls != rs)), nil
		case "<":
			return intVal(b2i(ls < rs)), nil
		case ">":
			return intVal(b2i(ls > rs)), nil
		case "<=":
			return intVal(b2i(ls <= rs)), nil
		case ">=":
			return intVal(b2i(ls >= rs)), nil
		case "+":
			return exprVal{}, NewError("can't use non-numeric string %q as operand of %q", nonNumericOf(lc, rc), op)
		default:
			return exprVal{}, NewError("can't use non-numeric string %q as operand of %q", nonNumericOf(lc, rc), op)
		}
	}
	bothInt := lc.kind == vInt && rc.kind == vInt
	if bothInt {
		if v, ok := intBinaryFast(op, lc.i, rc.i); ok {
			return v, nil
		}
	}
	// Left over: a floating-point operand, an integer divide by zero,
	// or **.
	switch op {
	case "+":
		return floatVal(lc.asFloat() + rc.asFloat()), nil
	case "-":
		return floatVal(lc.asFloat() - rc.asFloat()), nil
	case "*":
		return floatVal(lc.asFloat() * rc.asFloat()), nil
	case "/":
		if rc.asFloat() == 0 {
			return exprVal{}, NewError("divide by zero")
		}
		return floatVal(lc.asFloat() / rc.asFloat()), nil
	case "%", "<<", ">>", "&", "|", "^":
		if bothInt {
			// Of these, intBinaryFast refuses only % by zero.
			return exprVal{}, NewError("divide by zero")
		}
		return exprVal{}, NewError("can't use floating-point value as operand of %q", op)
	case "**":
		if bothInt && rc.i >= 0 {
			return intVal(intPow(lc.i, rc.i)), nil
		}
		return floatVal(math.Pow(lc.asFloat(), rc.asFloat())), nil
	case "==":
		return intVal(b2i(lc.asFloat() == rc.asFloat())), nil
	case "!=":
		return intVal(b2i(lc.asFloat() != rc.asFloat())), nil
	case "<":
		return intVal(b2i(lc.asFloat() < rc.asFloat())), nil
	case ">":
		return intVal(b2i(lc.asFloat() > rc.asFloat())), nil
	case "<=":
		return intVal(b2i(lc.asFloat() <= rc.asFloat())), nil
	case ">=":
		return intVal(b2i(lc.asFloat() >= rc.asFloat())), nil
	}
	return exprVal{}, NewError("unknown operator %q", op)
}

// intPow returns base**exp modulo 2^64 by square-and-multiply, in
// O(log exp) steps: the same product repeated multiplication wraps to.
func intPow(base, exp int64) int64 {
	res := int64(1)
	for ; exp > 0; exp >>= 1 {
		if exp&1 != 0 {
			res *= base
		}
		base *= base
	}
	return res
}

func nonNumericOf(l, r exprVal) string {
	if !l.isNumeric() {
		return l.s
	}
	return r.s
}

func applyFunc(name string, args []exprVal) (exprVal, error) {
	need := func(n int) error {
		if len(args) != n {
			return NewError("function %q requires %d argument(s)", name, n)
		}
		return nil
	}
	f1 := func(fn func(float64) float64) (exprVal, error) {
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if !a.isNumeric() {
			return exprVal{}, NewError("non-numeric argument to %q", name)
		}
		return floatVal(fn(a.asFloat())), nil
	}
	f2 := func(fn func(float64, float64) float64) (exprVal, error) {
		if err := need(2); err != nil {
			return exprVal{}, err
		}
		a, err := coerceFloat(args[0])
		if err != nil {
			return exprVal{}, err
		}
		b, err := coerceFloat(args[1])
		if err != nil {
			return exprVal{}, err
		}
		return floatVal(fn(a, b)), nil
	}
	switch name {
	case "abs":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if a.kind == vInt {
			if a.i < 0 {
				return intVal(-a.i), nil
			}
			return a, nil
		}
		return floatVal(math.Abs(a.asFloat())), nil
	case "int":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if !a.isNumeric() {
			return exprVal{}, NewError("non-numeric argument to int()")
		}
		return intVal(int64(a.asFloat())), nil
	case "round":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if !a.isNumeric() {
			return exprVal{}, NewError("non-numeric argument to round()")
		}
		return intVal(int64(math.Round(a.asFloat()))), nil
	case "double":
		if err := need(1); err != nil {
			return exprVal{}, err
		}
		a, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		if !a.isNumeric() {
			return exprVal{}, NewError("non-numeric argument to double()")
		}
		return floatVal(a.asFloat()), nil
	case "sqrt":
		return f1(math.Sqrt)
	case "sin":
		return f1(math.Sin)
	case "cos":
		return f1(math.Cos)
	case "tan":
		return f1(math.Tan)
	case "asin":
		return f1(math.Asin)
	case "acos":
		return f1(math.Acos)
	case "atan":
		return f1(math.Atan)
	case "sinh":
		return f1(math.Sinh)
	case "cosh":
		return f1(math.Cosh)
	case "tanh":
		return f1(math.Tanh)
	case "exp":
		return f1(math.Exp)
	case "log":
		return f1(math.Log)
	case "log10":
		return f1(math.Log10)
	case "floor":
		return f1(math.Floor)
	case "ceil":
		return f1(math.Ceil)
	case "atan2":
		return f2(math.Atan2)
	case "pow":
		return f2(math.Pow)
	case "fmod":
		return f2(math.Mod)
	case "hypot":
		return f2(math.Hypot)
	case "min":
		if len(args) == 0 {
			return exprVal{}, NewError("min() requires at least one argument")
		}
		best, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		for _, a := range args[1:] {
			c, err := coerce(a)
			if err != nil {
				return exprVal{}, err
			}
			if c.asFloat() < best.asFloat() {
				best = c
			}
		}
		return best, nil
	case "max":
		if len(args) == 0 {
			return exprVal{}, NewError("max() requires at least one argument")
		}
		best, err := coerce(args[0])
		if err != nil {
			return exprVal{}, err
		}
		for _, a := range args[1:] {
			c, err := coerce(a)
			if err != nil {
				return exprVal{}, err
			}
			if c.asFloat() > best.asFloat() {
				best = c
			}
		}
		return best, nil
	}
	return exprVal{}, NewError("unknown math function %q", name)
}

// parseQuotedWordForExpr parses a quoted word but allows arbitrary
// following characters (expr context, not command context).
func (p *parser) parseQuotedWordForExpr() (word, error) {
	open := p.pos
	p.pos++ // consume opening quote
	base := len(p.b.toks)
	err := p.gatherTokens('"')
	if pe, ok := err.(*ParseError); ok && pe.Off == open {
		// An unterminated operand is a syntax error of the expression,
		// which CheckExpr places at the operand: drop the offset.
		return word{}, errors.New(pe.Msg)
	}
	if err != nil {
		return word{}, err
	}
	return word{tokens: p.b.carveTokens(base)}, nil
}

// parseBracedWordForExpr parses {literal} in expr context, returning the
// raw content.
func (p *parser) parseBracedWordForExpr() (string, error) {
	depth := 0
	i := p.pos
	start := p.pos + 1
	for i < len(p.src) {
		switch p.src[i] {
		case '\\':
			i++
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				content := p.src[start:i]
				p.pos = i + 1
				return content, nil
			}
		}
		i++
	}
	return "", fmt.Errorf("missing close-brace")
}
