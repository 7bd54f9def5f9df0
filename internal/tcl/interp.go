package tcl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wafe/internal/obs"
)

// Code is a Tcl completion code. Values match Tcl's catch numbering.
type Code int

const (
	CodeOK       Code = 0
	CodeError    Code = 1
	CodeReturn   Code = 2
	CodeBreak    Code = 3
	CodeContinue Code = 4
	// CodeExit signals that the script called exit; embedders terminate
	// their event loop (rather than the process) when they see it.
	CodeExit Code = 5
)

// IsExit reports whether err is a Tcl exit request and returns the exit
// status if so. An empty value means a plain "exit" (status 0); any
// other value must be a whole decimal integer — a malformed value
// reports status 1 rather than masquerading as success.
func IsExit(err error) (int, bool) {
	te, ok := err.(*Error)
	if !ok || te.Code != CodeExit {
		return 0, false
	}
	s := strings.TrimSpace(te.Value)
	if s == "" {
		return 0, true
	}
	n, convErr := strconv.Atoi(s)
	if convErr != nil {
		return 1, true
	}
	return n, true
}

// Error is the error type produced by interpreter evaluation. It carries
// the Tcl completion code so that flow-control commands (break, continue,
// return) propagate through Go call chains, exactly as Tcl completion
// codes propagate through the C call chain in the original.
type Error struct {
	Code  Code
	Value string // error message (CodeError) or return value (CodeReturn)
}

func (e *Error) Error() string { return e.Value }

// NewError returns a plain Tcl error with the given message.
func NewError(format string, args ...any) *Error {
	return &Error{Code: CodeError, Value: fmt.Sprintf(format, args...)}
}

var (
	errBreak    = &Error{Code: CodeBreak, Value: "invoked \"break\" outside of a loop"}
	errContinue = &Error{Code: CodeContinue, Value: "invoked \"continue\" outside of a loop"}
)

// CommandFunc is the Go signature of a Tcl command. argv[0] is the
// command name; the remaining elements are fully substituted argument
// strings. Returning a non-nil error aborts evaluation unless a caller
// (catch, loops) intercepts the completion code.
type CommandFunc func(in *Interp, argv []string) (string, error)

// Proc is a user-defined procedure created by the proc command.
type Proc struct {
	Name string
	Args []ProcArg
	Body string

	// compiled is the Body compiled once at registration (or lazily on
	// the first call, for procs built directly by embedders). It is
	// derived purely from Body; redefining a proc installs a fresh Proc
	// with a fresh compiled body, so no invalidation is needed.
	compiled *Script
}

// ProcArg is one formal parameter of a proc, with an optional default.
type ProcArg struct {
	Name       string
	Default    string
	HasDefault bool
}

// variable holds a scalar or associative-array value. A variable with a
// non-nil link is an alias created by upvar/global. Scalars hold a
// typed Value so numbers written by the bytecode engine (incr, set
// from an expr) keep their machine representation between commands.
type variable struct {
	val     Value
	arr     map[string]string
	isArray bool
	link    *variable
}

func (v *variable) resolve() *variable {
	for v.link != nil {
		v = v.link
	}
	return v
}

// frame is one procedure call frame. Frames are pooled (acquireFrame/
// releaseFrame) and formal parameters are allocated from the frame's
// storage slab, so a proc call reuses one map and one backing array
// instead of allocating per call. The slab is safe to recycle because
// variable links always point from a deeper frame to a shallower one:
// by the time a frame is released every frame that could alias its
// variables is already gone.
type frame struct {
	vars map[string]*variable
	// proc is the procedure executing in this frame, nil for the global frame.
	proc *Proc
	// storage backs the formal-parameter variables of a pooled frame.
	storage []variable
	// id is the activation identity (frameSeq): unique per activation
	// even when the frame object itself is recycled through the pool.
	id uint64
}

// Interp is a Tcl interpreter instance. It is not safe for concurrent
// use; like Xt itself, Wafe is single threaded and funnels all work
// through one event loop.
type Interp struct {
	commands map[string]CommandFunc
	procs    map[string]*Proc
	frames   []*frame

	// metas holds per-command metadata (arity bounds, options) set via
	// SetCommandMeta; read by the wafecheck linter and, for entries
	// with a Usage string, by central arity enforcement.
	metas map[string]CommandMeta

	// Unknown, when non-nil, is invoked for undefined command names,
	// mirroring Tcl's unknown mechanism.
	Unknown CommandFunc

	// Stdout receives output of puts/echo. Defaults to an internal
	// buffer accessible via Output; the Wafe frontend points it at the
	// real stdout or the backend pipe.
	Stdout func(line string)

	output strings.Builder

	// maxNesting guards against runaway recursion.
	nesting    int
	maxNesting int

	// chans holds open file channels (the open/gets/close commands).
	chans *channelTable

	// errorUnwinding marks that errorInfo is being accumulated for the
	// currently-propagating error.
	errorUnwinding bool

	// scriptCache holds compiled scripts by source string, so that
	// repeatedly evaluated callbacks and bodies compile once. A nil
	// cache disables it (SetScriptCacheSize(0)). seen is its admission
	// table: the hashes of sources Eval has seen once (script.go).
	scriptCache *lruCache
	seen        [1 << seenBits]uint64
	// exprCache interns compiled expression ASTs by source string.
	exprCache *lruCache

	// obs, when non-nil, collects dispatch counts, eval latency and
	// cache hit rates. Nil (the default) keeps every hot path at a
	// single pointer comparison.
	obs *obs.TclMetrics

	// trace, when non-nil, records spans for top-level evals and proc
	// calls (same nil-pointer discipline as obs).
	trace *obs.Trace

	// prof is the active Tcl profiler; nil outside a profiling window.
	// The remaining fields are its activation bookkeeping: per-command
	// and per-proc child-time accumulators and the live proc stack for
	// folded output (profile.go).
	prof          *obs.Profiler
	profCmdChild  []int64
	profProcChild []int64
	profProcStack []string

	// oracle, when non-nil, evaluates scripts in place of the bytecode
	// VM. Only the engine tests set it, to the tree-walking oracle
	// (export_test.go); production leaves it nil.
	oracle func(*Script) (Value, error)

	// cmdGen is bumped on every change to the command table; the VM's
	// inline dispatch caches are valid only while their recorded
	// generation matches.
	cmdGen uint64

	// specialGen counts rebinds of the commands the bytecode compiler
	// specializes (set, incr, expr, while, for); specialBase is its
	// value right
	// after New registered the builtins. While they are equal the
	// builtins are known to still be in place, so the specialized
	// opcodes may bypass the command table; any later rebind makes the
	// two diverge forever and every specialized site falls back to
	// generic dispatch.
	specialGen  uint64
	specialBase uint64

	// bld builds the Scripts this interpreter keeps; scratchPool holds
	// the compile storage of first sightings (builder.go).
	bld         builder
	scratchPool []*scratch

	// framePool and regPool recycle proc call frames and VM register
	// files (arena-style: grab on entry, release on exit).
	framePool []*frame
	regPool   [][]Value

	// argvPool recycles the []string argument vectors built for
	// command invocations (vm.go opInvoke). Safe because commands do
	// not retain their argv slice past returning.
	argvPool [][]string

	// tmplSlots is a scratch buffer for expr-template slot values
	// (vm.go execExprTmpl); reused across evaluations to avoid
	// per-expression allocation.
	tmplSlots []Value

	// evPool recycles exprEvaluators: the evaluator is passed through
	// the exprNode interface, so a fresh one would escape to the heap
	// on every expression evaluated.
	evPool []*exprEvaluator

	// opCounts, when armed via CountDispatch, tallies VM dispatches by
	// opcode kind so tests can cross-check `wafecheck -why` labels
	// against what the engine actually executed. Nil (free) by default.
	opCounts *DispatchCounts

	// frameSeq hands out a fresh identity to every frame activation
	// (pooled frame objects are reused, so the pointer is not an
	// identity); varEpoch counts the events that can invalidate a
	// cached name->variable resolution anywhere in the interpreter:
	// unset, upvar/global relinking, scalar-to-array conversion.
	// Together they validate varRef caches (see cachedScalar).
	frameSeq uint64
	varEpoch uint64
}

// varRef is an inline cache for one compiled variable-access site: the
// resolved scalar variable, valid while the same frame activation is
// current and no unset/relink/array conversion has happened since.
type varRef struct {
	frameID uint64
	epoch   uint64
	v       *variable
}

// SetObs attaches (or, with nil, detaches) the observability metrics.
func (in *Interp) SetObs(m *obs.TclMetrics) { in.obs = m }

// New creates an interpreter with the standard command set registered.
func New() *Interp {
	in := &Interp{
		commands:    make(map[string]CommandFunc),
		procs:       make(map[string]*Proc),
		frames:      []*frame{{vars: make(map[string]*variable), id: 1}},
		frameSeq:    1,
		maxNesting:  1000,
		scriptCache: newLRUCache(defaultScriptCacheSize),
		exprCache:   newLRUCache(defaultExprCacheSize),
	}
	in.bld.in = in
	in.Stdout = func(line string) {
		in.output.WriteString(line)
		in.output.WriteByte('\n')
	}
	registerCoreCommands(in)
	registerStringCommands(in)
	registerListCommands(in)
	registerIOCommands(in)
	registerBuiltinMetas(in)
	in.specialBase = in.specialGen
	return in
}

// Output returns and clears text accumulated by puts/echo when Stdout
// has not been redirected.
func (in *Interp) Output() string {
	s := in.output.String()
	in.output.Reset()
	return s
}

// isSpecializedName reports whether the bytecode compiler emits
// dedicated opcodes for this command name.
func isSpecializedName(name string) bool {
	switch name {
	case "set", "incr", "expr", "while", "for":
		return true
	}
	return false
}

// RegisterCommand binds name to fn, replacing any previous binding.
func (in *Interp) RegisterCommand(name string, fn CommandFunc) {
	in.commands[name] = fn
	in.cmdGen++
	if isSpecializedName(name) {
		in.specialGen++
	}
}

// UnregisterCommand removes a command binding and its metadata.
func (in *Interp) UnregisterCommand(name string) {
	delete(in.commands, name)
	delete(in.procs, name)
	delete(in.metas, name)
	in.cmdGen++
	if isSpecializedName(name) {
		in.specialGen++
	}
}

// HasCommand reports whether name is a registered command or proc.
func (in *Interp) HasCommand(name string) bool {
	_, ok := in.commands[name]
	return ok
}

// Command returns the registered implementation of a command, allowing
// embedders to wrap or chain it.
func (in *Interp) Command(name string) (CommandFunc, bool) {
	fn, ok := in.commands[name]
	return fn, ok
}

// CommandNames returns all registered command names, sorted.
func (in *Interp) CommandNames() []string {
	names := make([]string, 0, len(in.commands))
	for n := range in.commands {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (in *Interp) currentFrame() *frame { return in.frames[len(in.frames)-1] }

func (in *Interp) globalFrame() *frame { return in.frames[0] }

// Level returns the current call-frame depth (0 = global).
func (in *Interp) Level() int { return len(in.frames) - 1 }

// splitArrayRef splits "name(index)" into (name, index, true); a plain
// name returns ok=false.
func splitArrayRef(name string) (base, idx string, ok bool) {
	open := strings.IndexByte(name, '(')
	if open >= 0 && strings.HasSuffix(name, ")") {
		return name[:open], name[open+1 : len(name)-1], true
	}
	return name, "", false
}

// GetVar returns the value of a variable in the current frame. The name
// may be of the form name(index) for array elements.
func (in *Interp) GetVar(name string) (string, error) {
	return in.getVarInFrame(in.currentFrame(), name)
}

func (in *Interp) getVarInFrame(f *frame, name string) (string, error) {
	base, idx, isArr := splitArrayRef(name)
	v, ok := f.vars[base]
	if !ok {
		return "", NewError("can't read %q: no such variable", name)
	}
	v = v.resolve()
	if isArr {
		if !v.isArray {
			return "", NewError("can't read %q: variable isn't array", name)
		}
		val, ok := v.arr[idx]
		if !ok {
			return "", NewError("can't read %q: no such element in array", name)
		}
		return val, nil
	}
	if v.isArray {
		return "", NewError("can't read %q: variable is array", name)
	}
	return v.val.String(), nil
}

// incrVar adds delta to an integer variable, creating it at 0 like the
// incr command always has. The typed path avoids the parse/format
// round trip when the variable already holds a machine integer.
func (in *Interp) incrVar(name string, delta int64) (Value, error) {
	base, _, isArr := splitArrayRef(name)
	if !isArr {
		f := in.currentFrame()
		if v, ok := f.vars[base]; ok {
			rv := v.resolve()
			if rv.isArray {
				return Value{}, NewError("can't read %q: variable is array", name)
			}
			var cur int64
			if rv.val.kind == vInt {
				cur = rv.val.i
			} else {
				s := rv.val.String()
				c, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
				if err != nil {
					return Value{}, NewError("expected integer but got %q", s)
				}
				cur = c
			}
			nv := intVal(cur + delta)
			rv.val = nv
			return nv, nil
		}
		nv := intVal(delta)
		f.vars[base] = &variable{val: nv}
		return nv, nil
	}
	// Array elements go through the string API.
	cur := int64(0)
	if in.VarExists(name) {
		s, err := in.GetVar(name)
		if err != nil {
			return Value{}, err
		}
		c, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
		if err != nil {
			return Value{}, NewError("expected integer but got %q", s)
		}
		cur = c
	}
	nv := intVal(cur + delta)
	if err := in.SetVar(name, nv.String()); err != nil {
		return Value{}, err
	}
	return nv, nil
}

// cachedScalar resolves a plain scalar variable through a per-site
// inline cache. A hit skips the frame's map lookup entirely; the cache
// is valid while the same activation (frame id) is current and no
// unset/upvar/array-conversion has happened since it was filled
// (varEpoch). Only positive, scalar results are cached: misses and
// arrays fall back to the classic paths and leave the cache alone, so
// a stale negative can never shadow a later creation.
func (in *Interp) cachedScalar(ref *varRef, name string) (*variable, bool) {
	f := in.currentFrame()
	if ref.frameID == f.id && ref.epoch == in.varEpoch {
		return ref.v, true
	}
	v, ok := f.vars[name]
	if !ok {
		return nil, false
	}
	rv := v.resolve()
	if rv.isArray {
		return nil, false
	}
	ref.frameID, ref.epoch, ref.v = f.id, in.varEpoch, rv
	return rv, true
}

// setScalarRef stores a typed value into a plain scalar variable
// through a varRef cache, creating the variable when it is missing.
// Floats are normalized on store so the typed engine matches the
// string engine's format-and-reparse round trip. A hit writes straight
// through the cached pointer; a miss fills the cache.
func (in *Interp) setScalarRef(ref *varRef, name string, val Value) error {
	f := in.currentFrame()
	if ref.frameID == f.id && ref.epoch == in.varEpoch {
		ref.v.val = normFloat(val)
		return nil
	}
	v, ok := f.vars[name]
	if !ok {
		v = &variable{}
		f.vars[name] = v
	}
	rv := v.resolve()
	if rv.isArray {
		return NewError("can't set %q: variable is array", name)
	}
	rv.val = normFloat(val)
	ref.frameID, ref.epoch, ref.v = f.id, in.varEpoch, rv
	return nil
}

// incrRef is the scalar-variable incr through a varRef cache.
func (in *Interp) incrRef(ref *varRef, name string, delta int64) (Value, error) {
	rv, ok := in.cachedScalar(ref, name)
	if !ok {
		return in.incrVar(name, delta)
	}
	var cur int64
	if rv.val.kind == vInt {
		cur = rv.val.i
	} else {
		s := rv.val.String()
		c, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
		if err != nil {
			return Value{}, NewError("expected integer but got %q", s)
		}
		cur = c
	}
	nv := intVal(cur + delta)
	rv.val = nv
	return nv, nil
}

// SetVar sets a variable (or array element, for name(index)) in the
// current frame.
func (in *Interp) SetVar(name, value string) error {
	return in.setVarInFrame(in.currentFrame(), name, value)
}

// SetGlobalVar sets a variable in the global frame regardless of the
// current call depth.
func (in *Interp) SetGlobalVar(name, value string) error {
	return in.setVarInFrame(in.globalFrame(), name, value)
}

// GetGlobalVar reads a variable from the global frame.
func (in *Interp) GetGlobalVar(name string) (string, error) {
	return in.getVarInFrame(in.globalFrame(), name)
}

func (in *Interp) setVarInFrame(f *frame, name, value string) error {
	base, idx, isArr := splitArrayRef(name)
	v, ok := f.vars[base]
	if !ok {
		v = &variable{}
		f.vars[base] = v
	}
	v = v.resolve()
	if isArr {
		if !v.isArray {
			if v.val.String() != "" {
				return NewError("can't set %q: variable isn't array", name)
			}
			v.isArray = true
			v.arr = make(map[string]string)
			in.varEpoch++ // scalar became array: cached scalar refs to it are invalid
		}
		v.arr[idx] = value
		return nil
	}
	if v.isArray {
		return NewError("can't set %q: variable is array", name)
	}
	v.val = strVal(value)
	return nil
}

// UnsetVar removes a variable or array element from the current frame.
func (in *Interp) UnsetVar(name string) error {
	f := in.currentFrame()
	base, idx, isArr := splitArrayRef(name)
	v, ok := f.vars[base]
	if !ok {
		return NewError("can't unset %q: no such variable", name)
	}
	rv := v.resolve()
	if isArr {
		if !rv.isArray {
			return NewError("can't unset %q: variable isn't array", name)
		}
		if _, ok := rv.arr[idx]; !ok {
			return NewError("can't unset %q: no such element in array", name)
		}
		delete(rv.arr, idx)
		return nil
	}
	delete(f.vars, base)
	in.varEpoch++ // unset: cached refs to this name are invalid
	return nil
}

// VarExists reports whether a variable (or array element) exists.
func (in *Interp) VarExists(name string) bool {
	f := in.currentFrame()
	base, idx, isArr := splitArrayRef(name)
	v, ok := f.vars[base]
	if !ok {
		return false
	}
	v = v.resolve()
	if isArr {
		if !v.isArray {
			return false
		}
		_, ok := v.arr[idx]
		return ok
	}
	return true
}

// arrayVar returns the resolved variable for name if it is an array.
func (in *Interp) arrayVar(name string) (*variable, bool) {
	v, ok := in.currentFrame().vars[name]
	if !ok {
		return nil, false
	}
	v = v.resolve()
	if !v.isArray {
		return nil, false
	}
	return v, true
}

// linkVar makes localName in the current frame an alias for name in the
// target frame (upvar/global).
func (in *Interp) linkVar(target *frame, name, localName string) error {
	base, _, isArr := splitArrayRef(name)
	if isArr {
		return NewError("can't upvar to array element %q", name)
	}
	tv, ok := target.vars[base]
	if !ok {
		tv = &variable{}
		target.vars[base] = tv
	}
	in.currentFrame().vars[localName] = &variable{link: tv}
	in.varEpoch++ // relink: localName may have resolved elsewhere before
	return nil
}

// EvalWords invokes a command given pre-substituted words, bypassing the
// parser. Used by the Wafe layer for callbacks built programmatically.
func (in *Interp) EvalWords(argv []string) (string, error) {
	if len(argv) == 0 {
		return "", nil
	}
	return in.invoke(argv)
}

func (in *Interp) invoke(argv []string) (string, error) {
	name := argv[0]
	if m := in.obs; m != nil {
		m.Dispatch.Inc(name)
	}
	if fn, ok := in.commands[name]; ok {
		return fn(in, argv)
	}
	if in.Unknown != nil {
		return in.Unknown(in, argv)
	}
	return "", NewError("invalid command name %q", name)
}

// substWords performs $, [] and backslash substitution on parsed words.
func (in *Interp) substWords(words []word) ([]string, error) {
	argv := make([]string, 0, len(words))
	for _, w := range words {
		s, err := in.substWord(w)
		if err != nil {
			return nil, err
		}
		argv = append(argv, s)
	}
	return argv, nil
}

func (in *Interp) substWord(w word) (string, error) {
	if len(w.tokens) == 1 && w.tokens[0].kind == tokText {
		return w.tokens[0].text, nil
	}
	var b strings.Builder
	for _, t := range w.tokens {
		s, err := in.substToken(t)
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func (in *Interp) substToken(t token) (string, error) {
	switch t.kind {
	case tokText:
		return t.text, nil
	case tokVar:
		name := t.text
		if t.hasIdx {
			var idx strings.Builder
			for _, it := range t.index {
				s, err := in.substToken(it)
				if err != nil {
					return "", err
				}
				idx.WriteString(s)
			}
			name = name + "(" + idx.String() + ")"
		}
		return in.GetVar(name)
	case tokCommand:
		if t.script != nil {
			return in.EvalScript(t.script)
		}
		return in.Eval(t.text)
	}
	return "", NewError("internal: bad token kind")
}

// Subst performs Tcl substitution on a string without treating it as a
// command (the subst command).
func (in *Interp) Subst(s string) (string, error) {
	p := newParser(s)
	var b strings.Builder
	for !p.atEnd() {
		c := p.peek()
		switch c {
		case '\\':
			b.WriteString(p.parseBackslash())
		case '$':
			t, err := p.parseVarToken()
			if err != nil {
				return "", &Error{Code: CodeError, Value: err.Error()}
			}
			v, err := in.substToken(t)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		case '[':
			t, err := p.parseCommandToken()
			if err != nil {
				return "", &Error{Code: CodeError, Value: err.Error()}
			}
			v, err := in.Eval(t.text)
			if err != nil {
				return "", err
			}
			b.WriteString(v)
		default:
			b.WriteByte(c)
			p.pos++
		}
	}
	return b.String(), nil
}

// callProc pushes a frame, binds arguments and evaluates the proc body.
// recordErrorInfo appends a stack-trace line to the errorInfo global,
// as classic Tcl does while an error unwinds.
func (in *Interp) recordErrorInfo(err error, context string) {
	te, ok := err.(*Error)
	if !ok || te.Code != CodeError {
		return
	}
	cur, getErr := in.GetGlobalVar("errorInfo")
	if getErr != nil || !in.errorUnwinding {
		cur = te.Value
		in.errorUnwinding = true
	}
	_ = in.SetGlobalVar("errorInfo", cur+"\n    "+context)
}

// ErrorInfo returns the traceback accumulated for the most recent
// error (the errorInfo global).
func (in *Interp) ErrorInfo() string {
	v, err := in.GetGlobalVar("errorInfo")
	if err != nil {
		return ""
	}
	return v
}

// acquireFrame grabs a pooled call frame (or makes one) for proc p.
// Every activation gets a fresh id so varRef caches from a previous
// tenant of a recycled frame object cannot hit.
func (in *Interp) acquireFrame(p *Proc) *frame {
	in.frameSeq++
	if n := len(in.framePool); n > 0 {
		f := in.framePool[n-1]
		in.framePool = in.framePool[:n-1]
		f.proc = p
		f.id = in.frameSeq
		return f
	}
	return &frame{vars: make(map[string]*variable, 8), proc: p, id: in.frameSeq}
}

// releaseFrame clears a frame and returns it to the pool. Must only be
// called once the frame is off the stack — no live variable can alias
// the slab then (links point deeper-to-shallower).
func (in *Interp) releaseFrame(f *frame) {
	for k := range f.vars {
		delete(f.vars, k)
	}
	f.proc = nil
	f.storage = f.storage[:0]
	if len(in.framePool) < 64 {
		in.framePool = append(in.framePool, f)
	}
}

func (in *Interp) callProc(p *Proc, argv []string) (string, error) {
	if t := in.trace; t != nil {
		sp := t.StartSpan("proc", p.Name)
		defer sp.End()
	}
	if in.prof != nil {
		done := in.profEnterProc(p.Name)
		defer done()
	}
	f := in.acquireFrame(p)
	actual := argv[1:]
	nFormal := len(p.Args)
	if cap(f.storage) < nFormal {
		f.storage = make([]variable, 0, nFormal+4)
	}
	varArgs := nFormal > 0 && p.Args[nFormal-1].Name == "args"
	for i, formal := range p.Args {
		if varArgs && i == nFormal-1 {
			var rest []string
			if i < len(actual) {
				rest = actual[i:]
			}
			f.storage = append(f.storage, variable{val: strVal(FormatList(rest))})
			f.vars["args"] = &f.storage[len(f.storage)-1]
			break
		}
		var val string
		switch {
		case i < len(actual):
			val = actual[i]
		case formal.HasDefault:
			val = formal.Default
		default:
			in.releaseFrame(f)
			return "", NewError("no value given for parameter %q to %q", formal.Name, p.Name)
		}
		// Interned so numeric arguments (the common case for compute
		// procs) arrive typed and loop bodies never re-parse them.
		f.storage = append(f.storage, variable{val: internValue(val)})
		f.vars[formal.Name] = &f.storage[len(f.storage)-1]
	}
	if !varArgs && len(actual) > nFormal {
		in.releaseFrame(f)
		return "", NewError("called %q with too many arguments", p.Name)
	}
	in.frames = append(in.frames, f)
	defer func() {
		in.frames = in.frames[:len(in.frames)-1]
		in.releaseFrame(f)
	}()
	if p.compiled == nil {
		p.compiled = in.bld.script(p.Body)
	}
	res, err := in.EvalScript(p.compiled)
	if err != nil {
		var te *Error
		if asTclError(err, &te) {
			switch te.Code {
			case CodeReturn:
				return te.Value, nil
			case CodeBreak, CodeContinue:
				return "", NewError("invoked %q outside of a loop",
					map[Code]string{CodeBreak: "break", CodeContinue: "continue"}[te.Code])
			}
		}
		in.recordErrorInfo(err, fmt.Sprintf("(procedure %q invoked as %q)", p.Name, strings.Join(argv, " ")))
		return "", err
	}
	return res, nil
}

func asTclError(err error, out **Error) bool {
	te, ok := err.(*Error)
	if ok {
		*out = te
	}
	return ok
}
