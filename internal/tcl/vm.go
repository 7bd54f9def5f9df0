package tcl

import (
	"fmt"
	"strconv"
	"strings"

	"wafe/internal/obs"
)

// This file is the executor of execution engine v2. execScript runs a
// Script's compiled Program (compile.go): per command, a short run of
// word instructions fills a register window with typed Values, then a
// dispatch instruction invokes the command — through an inline cache
// for literal names, or through a dedicated opcode for the specialized
// shapes (set/incr/expr). The commands of an inlined [script] run in
// the same window, between the word instructions of the command whose
// word they compute. Semantics are defined by the tree walker, which
// the tests keep as the differential oracle (export_test.go); every
// observable behavior here — results, error strings, errorInfo
// tracebacks, nesting limits, dispatch metrics, profiler sites — must
// match it exactly.

// execScript executes s under the bytecode engine. The caller
// (evalScriptBody) has already done the nesting bookkeeping.
func (in *Interp) execScript(s *Script) (Value, error) {
	return in.execProgram(in.program(s))
}

func (in *Interp) execProgram(p *Program) (Value, error) {
	var regs []Value
	if p.nregs > 0 {
		regs = in.acquireRegs(p.nregs)
	}
	var result Value
	for ci := range p.cmds {
		c := &p.cmds[ci]
		var res Value
		var name string
		var invoked bool
		var err error
		if in.prof == nil {
			res, name, invoked, err = in.execCmd(p, c, p.insns[c.start:c.end], regs)
		} else {
			res, name, invoked, err = in.profExecCmd(p, c, regs)
		}
		if err != nil {
			if regs != nil {
				in.releaseRegs(regs)
			}
			if in.nesting == 1 && invoked {
				// The error reached the top level from a command
				// invocation (not from word substitution): finish the
				// traceback, exactly as the tree walker does.
				in.recordErrorInfo(err, fmt.Sprintf("while executing %q", name))
				in.errorUnwinding = false
			}
			return res, err
		}
		result = res
	}
	if regs != nil {
		in.releaseRegs(regs)
	}
	if p.script.parseErr != nil {
		return Value{}, p.script.parseErr
	}
	return result, nil
}

// execCmd runs insns, a run of command c's instructions: word
// instructions, normally ending in the dispatch instruction. It
// returns the command's result, the command name, and whether the
// command was invoked: an error from word substitution, an inlined
// command's included, reports false, and gets no errorInfo traceback
// entry or profile site. Such an error leaves the nesting level of an
// inlined [script] in place; evalScriptBody and execLoopScript, which
// every run of a Program is under, restore it.
func (in *Interp) execCmd(p *Program, c *progCmd, insns []insn, regs []Value) (Value, string, bool, error) {
	for i := range insns {
		ins := &insns[i]
		switch ins.op {
		case opConst:
			regs[ins.c] = p.consts[ins.a]

		case opVar:
			s := &p.vars[ins.a]
			if v := in.siteScalar(s); v != nil {
				regs[ins.c] = v.val
				continue
			}
			// Missing variable or array: GetVar raises the classic
			// error message.
			str, err := in.GetVar(s.name)
			if err != nil {
				return Value{}, "", false, err
			}
			regs[ins.c] = strVal(str)

		case opElem:
			s := &p.vars[ins.a]
			str, err := readElem(in.siteVar(s), s.name, regs[ins.b].String())
			if err != nil {
				return Value{}, "", false, err
			}
			regs[ins.c] = strVal(str)

		case opConcat:
			regs[ins.c] = strVal(in.concat(regs[ins.a : ins.a+ins.b]))

		case opEnter:
			in.nesting++
			if in.nesting > in.maxNesting {
				return Value{}, "", false, errNesting()
			}

		case opLeave:
			in.nesting--

		default:
			if ins.d < 0 {
				return in.dispatch(p, c, ins, regs)
			}
			ic := &p.inl[ins.d]
			var res Value
			var err error
			if in.prof == nil {
				res, _, _, err = in.dispatch(p, ic, ins, regs)
			} else {
				res, _, _, err = in.profDispatch(p, ic, ins, regs)
			}
			if err != nil {
				return Value{}, "", false, err
			}
			regs[ic.dst] = res
		}
	}
	// Only a run of word instructions ends here: profExecCmd runs a
	// command's words apart from its dispatch instruction.
	return Value{}, "", false, nil
}

// errNesting is the error of a run past the nesting limit.
func errNesting() *Error {
	return NewError("too many nested calls to Eval (infinite loop?)")
}

// concat joins vals as strings, writing machine integers without
// formatting them first. The buffer is kept for the next word unless
// it grew past maxCachedSrcLen, the size of a source worth caching.
func (in *Interp) concat(vals []Value) string {
	b := in.catBuf[:0]
	for _, v := range vals {
		if v.kind == vInt && v.s == "" {
			b = strconv.AppendInt(b, v.i, 10)
		} else {
			b = append(b, v.String()...)
		}
	}
	if cap(b) <= maxCachedSrcLen {
		in.catBuf = b
	}
	return string(b)
}

// count increments name's dispatch counter, which cache site ca
// holds. Callers check that metrics are attached first.
func (in *Interp) count(ca *dispatchCache, name string) {
	m := in.metrics
	if m == nil {
		return
	}
	if ca.m != m {
		ca.m, ca.ctr = m, in.dispatchCounter(name)
	}
	if c := ca.ctr; c != nil {
		c.Inc()
	}
}

// dispatchCounter returns the attached metrics' Dispatch.Counter(name),
// remembered per interpreter: a site whose cache is empty, as every
// site of a first sighting's scratch Program is, then takes no lock to
// fill it.
func (in *Interp) dispatchCounter(name string) *obs.Counter {
	m := in.metrics
	if m == nil {
		return nil
	}
	if in.ctrOf != m {
		in.ctrOf, in.ctrs = m, make(map[string]*obs.Counter)
	}
	c := in.ctrs[name]
	if c == nil {
		c = m.Tcl.Dispatch.Counter(name)
		in.ctrs[name] = c
	}
	return c
}

// dispatch runs the dispatch instruction ins of command c and returns
// what execCmd does.
func (in *Interp) dispatch(p *Program, c *progCmd, ins *insn, regs []Value) (Value, string, bool, error) {
	switch ins.op {
	case opInvoke:
		argv := in.acquireArgv(int(ins.b))
		for j := range argv {
			argv[j] = regs[int(ins.a)+j].String()
		}
		name := argv[0]
		if dc := in.opCounts; dc != nil {
			dc.Invoke++
		}
		var fn CommandFunc
		if ins.c >= 0 {
			ca := &p.caches[ins.c]
			if in.metrics != nil {
				in.count(ca, name)
			}
			if ca.fn != nil && ca.gen == in.cmdGen {
				fn = ca.fn
			} else if f, ok := in.commands[name]; ok {
				ca.gen, ca.fn = in.cmdGen, f
				fn = f
			}
		} else {
			if m := in.metrics; m != nil {
				m.Tcl.Dispatch.Inc(name)
			}
			fn = in.commands[name]
		}
		if fn == nil {
			if in.Unknown != nil {
				res, err := in.Unknown(in, argv)
				in.releaseArgv(argv)
				return strVal(res), name, true, err
			}
			in.releaseArgv(argv)
			return Value{}, name, true, NewError("invalid command name %q", name)
		}
		res, err := fn(in, argv)
		in.releaseArgv(argv)
		return strVal(res), name, true, err

	case opSet:
		// The specialized shapes bypass the command table, so they
		// must re-check that the builtin is still bound (specialGen)
		// before running its semantics directly.
		s := &p.vars[ins.a]
		if in.specialGen != in.specialBase {
			// The value word has already run into regs[b];
			// substituting the source words again would run its
			// commands twice.
			res, err := in.invoke([]string{"set", s.name, regs[ins.b].String()})
			return strVal(res), "set", true, err
		}
		if in.metrics != nil {
			in.count(&p.caches[ins.c], "set")
		}
		if dc := in.opCounts; dc != nil {
			dc.Set++
		}
		nv := normFloat(regs[ins.b])
		if err := in.setSite(s, nv); err != nil {
			return Value{}, "set", true, err
		}
		return nv, "set", true, nil

	case opIncr:
		if in.specialGen != in.specialBase {
			return in.execGenericFallback(c)
		}
		if in.metrics != nil {
			in.count(&p.caches[ins.c], "incr")
		}
		if dc := in.opCounts; dc != nil {
			dc.Incr++
		}
		v, err := in.incrSite(&p.vars[ins.a], int64(ins.b))
		if err != nil {
			return Value{}, "incr", true, err
		}
		return v, "incr", true, nil

	case opExpr:
		if in.specialGen != in.specialBase {
			return in.execGenericFallback(c)
		}
		if in.metrics != nil {
			in.count(&p.caches[ins.c], "expr")
		}
		if dc := in.opCounts; dc != nil {
			dc.Expr++
		}
		ev := in.acquireEval()
		v, err := p.exprs[ins.a].eval(ev)
		in.releaseEval(ev)
		if err != nil {
			return Value{}, "expr", true, err
		}
		return normFloat(v), "expr", true, nil

	case opExprTmpl:
		if in.specialGen != in.specialBase {
			return in.execGenericFallback(c)
		}
		if dc := in.opCounts; dc != nil {
			dc.ExprTmpl++
		}
		return in.execExprTmpl(p.tmpls[ins.a], c, &p.caches[ins.c])

	case opWhile:
		// Mirrors cmdWhile exactly, minus the per-invocation script
		// parse and the per-iteration expression-cache lookups.
		if in.specialGen != in.specialBase {
			return in.execGenericFallback(c)
		}
		if in.metrics != nil {
			in.count(&p.caches[ins.c], "while")
		}
		if dc := in.opCounts; dc != nil {
			dc.While++
		}
		return Value{}, "while", true, in.runWhile(&p.loops[ins.a])

	case opFor:
		// Mirrors cmdFor, including Tcl_ForObjCmd's rule that a break
		// raised by the next script terminates the loop.
		if in.specialGen != in.specialBase {
			return in.execGenericFallback(c)
		}
		if in.metrics != nil {
			in.count(&p.caches[ins.c], "for")
		}
		if dc := in.opCounts; dc != nil {
			dc.For++
		}
		return Value{}, "for", true, in.runFor(&p.loops[ins.a])
	}
	panic("tcl: not a dispatch instruction")
}

// execGenericFallback runs a command whose specialized opcode has been
// invalidated (incr/expr/while/for was rebound) through the full
// substitute-and-dispatch path; those opcodes run no word
// instructions, so the words are substituted here, once.
func (in *Interp) execGenericFallback(c *progCmd) (Value, string, bool, error) {
	argv, err := in.substWords(c.src.words)
	if err != nil {
		return Value{}, "", false, err
	}
	res, err := in.invoke(argv)
	return strVal(res), argv[0], true, err
}

// execExprTmpl evaluates a compiled expr template: fetch every slot
// variable, verify each value is a pure numeric literal, then run the
// typed AST. Any impurity — a missing variable, an array, a value the
// expression lexer would not scan as exactly one number — bails to the
// classic join-and-parse path, which is the defining semantics. ca is
// the dispatch's cache site, which holds its counter.
func (in *Interp) execExprTmpl(t *exprTemplate, c *progCmd, ca *dispatchCache) (Value, string, bool, error) {
	slots := in.tmplSlots[:0]
	for si := range t.sites {
		rv := in.siteScalar(&t.sites[si])
		if rv == nil {
			in.tmplSlots = slots[:0]
			return in.execExprTmplBail(c, ca)
		}
		v := rv.val
		if v.kind == vInt {
			// Ints are always pure (see pureOperandValue); inlined
			// because this is the hot case of numeric loops.
			slots = append(slots, Value{kind: vInt, i: v.i})
			continue
		}
		pv, ok := pureOperandValue(v)
		if !ok {
			in.tmplSlots = slots[:0]
			return in.execExprTmplBail(c, ca)
		}
		slots = append(slots, pv)
	}
	in.tmplSlots = slots[:0]
	if in.metrics != nil {
		in.count(ca, "expr")
	}
	if t.fastOp != "" {
		if a, b := slots[t.fastL], slots[t.fastR]; a.kind == vInt && b.kind == vInt {
			if r, ok := intBinaryFast(t.fastOp, a.i, b.i); ok {
				return r, "expr", true, nil
			}
		}
	}
	ev := in.acquireEval()
	ev.slots = slots
	v, err := t.node.eval(ev)
	in.releaseEval(ev)
	if err != nil {
		return Value{}, "expr", true, err
	}
	return normFloat(v), "expr", true, nil
}

// execExprTmplBail is the template's escape hatch: substitute the
// original words and evaluate like cmdExpr. A substitution failure is
// reported as such (no traceback entry), matching the tree walker's
// ordering where substitution precedes dispatch.
func (in *Interp) execExprTmplBail(c *progCmd, ca *dispatchCache) (Value, string, bool, error) {
	argv, err := in.substWords(c.src.words)
	if err != nil {
		return Value{}, "", false, err
	}
	if in.metrics != nil {
		in.count(ca, "expr")
	}
	res, err := in.ExprEval(strings.Join(argv[1:], " "))
	if err != nil {
		return Value{}, "expr", true, err
	}
	return strVal(res), "expr", true, nil
}

// pureOperandValue prepares a variable's value for use as a template
// slot. The fast cases are machine numbers with no divergent string
// form; anything carrying a string is re-scanned with the expression
// lexer (pureNumberValue) so the slot holds exactly the value the
// classic substitute-then-parse evaluation would have produced.
func pureOperandValue(v Value) (Value, bool) {
	if v.kind == vInt {
		// Ints are always pure: a cached spelling, if any, is canonical
		// (see Value.s), so the machine value is exactly what the
		// classic substitute-then-rescan path would have produced.
		return Value{kind: vInt, i: v.i}, true
	}
	if v.s == "" {
		switch v.kind {
		case vFloat:
			// Normalize through the string round trip first: classic
			// evaluation would have substituted the formatted text.
			nv := normFloat(v)
			if nv.kind == vFloat {
				return Value{kind: vFloat, f: nv.f}, true
			}
			return pureNumberValue(nv.String())
		}
		// Zero value: the empty string, never a pure number.
		return Value{}, false
	}
	return pureNumberValue(v.s)
}

// acquireRegs grabs a register window from the pool (or allocates
// one). Windows are stack-disciplined — nested execScript calls
// acquire after their caller and release before it — so a small LIFO
// pool eliminates steady-state allocation.
func (in *Interp) acquireRegs(n int) []Value {
	for k := len(in.regPool); k > 0; k-- {
		r := in.regPool[k-1]
		in.regPool = in.regPool[:k-1]
		if cap(r) >= n {
			return r[:n]
		}
		// Too small to be useful; drop it and try the next.
	}
	if n < 8 {
		return make([]Value, n, 8)
	}
	return make([]Value, n)
}

// acquireArgv grabs an argv buffer for one command invocation from a
// LIFO pool. Sound because no command retains its argv slice past its
// return (the values are Go strings, which callees copy by header and
// which outlive the buffer): the buffer is reused only after the
// invocation completes, and nested invocations acquire and release in
// stack order.
func (in *Interp) acquireArgv(n int) []string {
	for k := len(in.argvPool); k > 0; k-- {
		a := in.argvPool[k-1]
		in.argvPool = in.argvPool[:k-1]
		if cap(a) >= n {
			return a[:n]
		}
	}
	if n < 8 {
		return make([]string, n, 8)
	}
	return make([]string, n)
}

func (in *Interp) releaseArgv(a []string) {
	for i := range a {
		a[i] = ""
	}
	if len(in.argvPool) < 32 {
		in.argvPool = append(in.argvPool, a)
	}
}

func (in *Interp) releaseRegs(r []Value) {
	for i := range r {
		r[i] = Value{} // drop string references
	}
	if len(in.regPool) < 32 {
		in.regPool = append(in.regPool, r)
	}
}

// runWhile is the body of opWhile: cmdWhile's exact control flow, with
// the condition evaluated as a pre-compiled typed AST (the same
// evaluation ExprBool performs after its cache lookup) and one
// evaluator reused across iterations.
func (in *Interp) runWhile(li *loopInfo) error {
	ev := in.acquireEval()
	defer in.releaseEval(ev)
	for {
		v, err := li.cond.eval(ev)
		if err != nil {
			return err
		}
		ok, err := v.asBool()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if _, err := in.execLoopScript(li.body); err != nil {
			var te *Error
			if asTclError(err, &te) {
				if te.Code == CodeBreak {
					return nil
				}
				if te.Code == CodeContinue {
					continue
				}
			}
			return err
		}
	}
}

// runFor is the body of opFor: cmdFor's exact control flow, including
// Tcl_ForObjCmd's rule that a break raised by the next script
// terminates the loop.
func (in *Interp) runFor(li *loopInfo) error {
	if _, err := in.execLoopScript(li.init); err != nil {
		return err
	}
	ev := in.acquireEval()
	defer in.releaseEval(ev)
	for {
		v, err := li.cond.eval(ev)
		if err != nil {
			return err
		}
		ok, err := v.asBool()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if _, err := in.execLoopScript(li.body); err != nil {
			var te *Error
			if asTclError(err, &te) {
				if te.Code == CodeBreak {
					return nil
				}
				if te.Code != CodeContinue {
					return err
				}
			} else {
				return err
			}
		}
		if _, err := in.execLoopScript(li.next); err != nil {
			var te *Error
			if asTclError(err, &te) && te.Code == CodeBreak {
				return nil
			}
			return err
		}
	}
}

// execLoopScript is evalScriptV for a loop's script, which was built
// with the loop's Program: the same nesting bookkeeping, minus the
// owner check. Loops only run at nesting >= 1, so the top-level
// instrumentation branch of evalScriptV cannot apply, and the
// nesting==1 traceback reset in evalScriptBody cannot fire.
func (in *Interp) execLoopScript(s *Script) (Value, error) {
	saved := in.nesting
	in.nesting++
	defer func() { in.nesting = saved }()
	if in.nesting > in.maxNesting {
		return Value{}, errNesting()
	}
	if in.oracle != nil {
		return in.oracle(s)
	}
	return in.execProgram(s.prog)
}

// acquireEval grabs a pooled exprEvaluator. Evaluations nest (a
// bracketed command inside an expression can itself evaluate
// expressions), so this is a free list rather than a single scratch
// slot.
func (in *Interp) acquireEval() *exprEvaluator {
	if n := len(in.evPool); n > 0 {
		ev := in.evPool[n-1]
		in.evPool = in.evPool[:n-1]
		return ev
	}
	return &exprEvaluator{in: in}
}

func (in *Interp) releaseEval(ev *exprEvaluator) {
	ev.slots = nil
	ev.skipDepth = 0
	if len(in.evPool) < 16 {
		in.evPool = append(in.evPool, ev)
	}
}
