package tcl

import "fmt"

// This file is the storage side of compilation. A builder turns a
// source into a Script and, when it builds for an interpreter, lowers
// the Script into its Program at once. The parser gathers a command's
// words, and a word's tokens, on the builder's stacks; the builder then
// stores each finished list in an exactly sized slice. A kept Script
// takes its slices from the heap. A source Eval sees for the first time
// takes them from a scratch, the interpreter's reusable compile
// storage, and is forgotten when its run ends (Interp.Eval).

// builder builds Scripts and their Programs. The stacks follow the
// parse's nesting: each level pushes above the levels enclosing it and
// pops back to where it started, so nested scripts and array indexes
// share them.
type builder struct {
	// in, when non-nil, owns the Scripts built: each gets its Program
	// now. Scripts from Compile have no owner and are lowered by the
	// first interpreter that runs them (Interp.program).
	in *Interp
	// sc is the storage of a first sighting; nil stores on the heap.
	sc *scratch

	cmds  []parsedCommand
	words []word
	toks  []token
	// esc holds the text of a literal run once a backslash escape has
	// made it differ from the source.
	esc []byte
}

// scratch is the compile storage of one first-sighting Eval: the
// Scripts, commands, words and tokens its parse stores, and the
// Programs it is lowered into, loop bodies included. The interpreter keeps scratches in a LIFO pool because
// Evals nest; a scratch is reused once the Eval that took it returns.
// Nothing in it may be reached after that, so none of it enters a
// cache, and a reused Program starts with zeroed inline caches,
// variable sites and dispatch counters.
type scratch struct {
	b       builder
	scripts []Script
	cmds    []parsedCommand
	words   []word
	toks    []token
	progs   []*Program
	nprogs  int
}

// carve returns the next n elements of *buf. When buf is full it moves
// on to a fresh, larger chunk; the elements carved before stay where
// they are.
func carve[T any](buf *[]T, n int) []T {
	s := *buf
	if len(s)+n > cap(s) {
		s = make([]T, 0, max(2*cap(s), n, 16))
	}
	*buf = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// pop moves the top of stack, from base on, into an exactly sized
// slice: carved from buf, or from the heap when buf is nil.
func pop[T any](stack *[]T, base int, buf *[]T) []T {
	top := (*stack)[base:]
	if len(top) == 0 {
		return nil
	}
	var out []T
	if buf != nil {
		out = carve(buf, len(top))
	} else {
		out = make([]T, len(top))
	}
	copy(out, top)
	*stack = (*stack)[:base]
	return out
}

func (b *builder) carveTokens(base int) []token {
	if b.sc != nil {
		return pop(&b.toks, base, &b.sc.toks)
	}
	return pop(&b.toks, base, nil)
}

func (b *builder) carveWords(base int) []word {
	if b.sc != nil {
		return pop(&b.words, base, &b.sc.words)
	}
	return pop(&b.words, base, nil)
}

// script parses src into a Script and, when b builds for an
// interpreter, lowers it into its Program.
func (b *builder) script(src string) *Script {
	s := b.parse(src)
	if b.in != nil {
		s.owner, s.prog = b.in, b.program(s, nil)
	}
	return s
}

// parse parses src into a Script, each nested [script] included;
// nothing is lowered. It never fails: a parse error is recorded on the
// Script and replayed at evaluation time, after the commands that
// precede it have run (matching the incremental evaluator, which only
// discovers a parse error once evaluation reaches the malformed
// command).
func (b *builder) parse(src string) *Script {
	s, _ := b.parseScript(src, false)
	return s
}

// parseScript is parse, or with nested the parse of a command
// substitution's script, which src holds from just after its '[' on.
// A nested script ends at its first unmatched ']', where its Source
// stops, and its parse error is returned: the enclosing word cannot
// end without the ']'. The offset of a missing ']' is -1, its '['.
func (b *builder) parseScript(src string, nested bool) (*Script, error) {
	var s *Script
	if b.sc != nil {
		s = &carve(&b.sc.scripts, 1)[0]
		*s = Script{Source: src}
	} else {
		s = &Script{Source: src}
	}
	p := parser{src: src, b: b, nested: nested}
	cbase, wbase, tbase := len(b.cmds), len(b.words), len(b.toks)
	for {
		cmd, ok, err := p.nextCommand()
		if err == nil && !ok && nested && p.atEnd() {
			err = p.missing(-1, "close-bracket")
		}
		if err != nil {
			b.words, b.toks = b.words[:wbase], b.toks[:tbase]
			if nested {
				b.cmds = b.cmds[:cbase]
				return nil, err
			}
			msg := err.Error()
			if pe, ok := err.(*ParseError); ok {
				s.parseErrOff = pe.Off
				line, col := LineCol(src, pe.Off)
				msg = fmt.Sprintf("%s (line %d, column %d)", msg, line, col)
			}
			s.parseErr = &Error{Code: CodeError, Value: msg}
			break
		}
		if !ok {
			break
		}
		b.cmds = append(b.cmds, cmd)
	}
	if nested {
		s.Source = src[:p.pos]
	}
	if b.sc != nil {
		s.cmds = pop(&b.cmds, cbase, &b.sc.cmds)
	} else {
		s.cmds = pop(&b.cmds, cbase, nil)
	}
	return s, nil
}

// newProgram returns the Program s is lowered into: a new one, or the
// scratch's next one with its slices emptied for reuse.
func (b *builder) newProgram(s *Script) *Program {
	sc := b.sc
	if sc == nil {
		return &Program{script: s}
	}
	if sc.nprogs == len(sc.progs) {
		sc.progs = append(sc.progs, &Program{})
	}
	p := sc.progs[sc.nprogs]
	sc.nprogs++
	*p = Program{script: s, insns: p.insns[:0], cmds: p.cmds[:0],
		inl: p.inl[:0], consts: p.consts[:0], vars: p.vars[:0],
		exprs: p.exprs[:0], tmpls: p.tmpls[:0],
		loops: p.loops[:0], caches: p.caches[:0]}
	return p
}

// takeScratch pops a scratch from the pool, or makes one.
func (in *Interp) takeScratch() *scratch {
	if n := len(in.scratchPool); n > 0 {
		sc := in.scratchPool[n-1]
		in.scratchPool = in.scratchPool[:n-1]
		return sc
	}
	sc := &scratch{}
	sc.b = builder{in: in, sc: sc}
	return sc
}

// releaseScratch empties sc for the next first sighting and pools it.
func (in *Interp) releaseScratch(sc *scratch) {
	sc.scripts, sc.cmds = sc.scripts[:0], sc.cmds[:0]
	sc.words, sc.toks = sc.words[:0], sc.toks[:0]
	sc.nprogs = 0
	if len(in.scratchPool) < 4 {
		in.scratchPool = append(in.scratchPool, sc)
	}
}
