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

	// compiled is the Body, parsed and lowered by the first call
	// (lowerProc). It is derived purely from Body; redefining a proc
	// installs a fresh Proc, so no invalidation is needed.
	compiled *Script
	// slots names the proc's compiled locals, as Tcl 8's compiled
	// procedures do: every variable name the lowered body spells out
	// literally, the formals first. Each frame of the proc holds one
	// variable per slot, and the body's instructions address them by
	// index. The table is fixed before the first frame exists.
	slots []string
	// formalSlot is the slot of each formal, parallel to Args.
	formalSlot []int32
}

// ProcArg is one formal parameter of a proc, with an optional default.
type ProcArg struct {
	Name       string
	Default    string
	HasDefault bool
}

// slot returns the slot of name, adding one for a name it lacks. An
// array reference gets none: such a name is only ever looked up by
// its base.
func (p *Proc) slot(name string) int32 {
	for i, n := range p.slots {
		if n == name {
			return int32(i)
		}
	}
	if _, _, isArr := splitArrayRef(name); isArr {
		return -1
	}
	p.slots = append(p.slots, name)
	return int32(len(p.slots) - 1)
}

// variable holds a scalar or associative-array value. Scalars hold a
// typed Value so numbers written by the bytecode engine (incr, set
// from an expr) keep their machine representation between commands.
// upvar and global bind a second name to the same variable.
type variable struct {
	val     Value
	arr     map[string]string
	isArray bool
}

// frame is one procedure call frame. A name the proc's lowering saw
// lives in the frame's slot of that name; any other name, computed or
// created at run time, lives in the map. Frames are pooled
// (acquireFrame/releaseFrame) and a frame's new variables come from
// its slab, so a proc call reuses one slot array, one map and one
// backing array instead of allocating per call. The slab is safe to
// recycle because a name only ever refers to a variable of its own
// frame or of a shallower one: by the time a frame is released every
// frame that could refer to its variables is already gone.
type frame struct {
	vars map[string]*variable
	// proc is the procedure executing in this frame, nil for the global frame.
	proc *Proc
	// slots holds the variable of each of proc's slots, nil while the
	// name has none.
	slots []*variable
	// slab backs the variables this activation creates; nslab of them
	// are handed out.
	slab  []variable
	nslab int
}

// slotOf returns the slot name has in f, -1 for none.
func (f *frame) slotOf(name string) int {
	if f.proc != nil {
		for i, n := range f.proc.slots {
			if n == name {
				return i
			}
		}
	}
	return -1
}

// lookup returns the variable name refers to in f, nil for none.
func (f *frame) lookup(name string) *variable {
	if i := f.slotOf(name); i >= 0 {
		return f.slots[i]
	}
	return f.vars[name]
}

// bind makes name refer to v in f; a nil v removes the name.
func (f *frame) bind(name string, v *variable) {
	switch i := f.slotOf(name); {
	case i >= 0:
		f.slots[i] = v
	case v != nil:
		f.vars[name] = v
	default:
		delete(f.vars, name)
	}
}

// create binds name to a new, empty variable in f and returns it.
func (f *frame) create(name string) *variable {
	v := f.newVar()
	f.bind(name, v)
	return v
}

// newVar returns an empty variable from the slab, or from the heap
// once the slab is used up.
func (f *frame) newVar() *variable {
	if f.nslab < len(f.slab) {
		f.nslab++
		return &f.slab[f.nslab-1]
	}
	return &variable{}
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

	// Stdout receives output of puts/echo. It defaults to the process's
	// standard output, as tclsh's puts writes; the Wafe frontend points
	// it at the backend pipe.
	Stdout func(line string)

	// maxNesting guards against runaway recursion.
	nesting    int
	maxNesting int

	// chans holds open file channels (the open/gets/close commands).
	chans *channelTable

	// errorUnwinding marks that errorInfo is being accumulated for the
	// currently-propagating error; errorLogged, that a top-level error
	// command began it with its info word, which leaves out its line.
	errorUnwinding, errorLogged bool

	// scriptCache holds compiled scripts by source string, so that
	// repeatedly evaluated callbacks and bodies compile once. A nil
	// cache disables it (SetScriptCacheSize(0)). seen is its admission
	// table: the hashes of sources Eval has seen once (script.go).
	scriptCache *lruCache
	seen        [1 << seenBits]uint64
	// exprCache interns compiled expression ASTs by source string.
	exprCache *lruCache

	// metrics, when non-nil, collects dispatch counts, eval latency
	// and cache hit rates, and its Trace records spans for top-level
	// evals and proc calls. Nil (the default) keeps every hot path at
	// a single pointer comparison.
	metrics *obs.Metrics

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

	// ctrs remembers the dispatch counters of ctrOf by command name,
	// for the dispatch sites that fill their caches (vm.go count).
	ctrOf *obs.Metrics
	ctrs  map[string]*obs.Counter

	// catBuf is the scratch buffer opConcat joins a word's pieces in.
	catBuf []byte

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
}

// SetMetrics attaches (or, with nil, detaches) the observability
// registry: its Tcl metrics and its span tracer.
func (in *Interp) SetMetrics(m *obs.Metrics) { in.metrics = m }

// New creates an interpreter with the standard command set registered.
func New() *Interp {
	in := &Interp{
		commands:    make(map[string]CommandFunc),
		procs:       make(map[string]*Proc),
		frames:      []*frame{{vars: make(map[string]*variable)}},
		maxNesting:  1000,
		scriptCache: newLRUCache(defaultScriptCacheSize),
		exprCache:   newLRUCache(defaultExprCacheSize),
	}
	in.bld.in = in
	in.Stdout = func(line string) { fmt.Println(line) }
	registerCoreCommands(in)
	registerStringCommands(in)
	registerListCommands(in)
	registerIOCommands(in)
	registerBuiltinMetas(in)
	in.specialBase = in.specialGen
	return in
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
	v := f.lookup(base)
	if isArr {
		return readElem(v, base, idx)
	}
	if v == nil {
		return "", NewError("can't read %q: no such variable", name)
	}
	if v.isArray {
		return "", NewError("can't read %q: variable is array", name)
	}
	return v.val.String(), nil
}

// readElem reads element idx of v, the variable base refers to (nil
// for none), with the error messages of a read of "base(idx)".
func readElem(v *variable, base, idx string) (string, error) {
	switch {
	case v == nil:
		return "", NewError("can't read %q: no such variable", base+"("+idx+")")
	case !v.isArray:
		return "", NewError("can't read %q: variable isn't array", base+"("+idx+")")
	}
	val, ok := v.arr[idx]
	if !ok {
		return "", NewError("can't read %q: no such element in array", base+"("+idx+")")
	}
	return val, nil
}

// incrVar adds delta to an integer variable, creating it at 0 like the
// incr command always has. The typed path avoids the parse/format
// round trip when the variable already holds a machine integer.
func (in *Interp) incrVar(name string, delta int64) (Value, error) {
	base, _, isArr := splitArrayRef(name)
	if !isArr {
		f := in.currentFrame()
		if v := f.lookup(base); v != nil {
			return incrScalar(v, name, delta)
		}
		nv := intVal(delta)
		f.create(base).val = nv
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

// incrScalar adds delta to v, the variable name refers to.
func incrScalar(v *variable, name string, delta int64) (Value, error) {
	if v.isArray {
		return Value{}, NewError("can't read %q: variable is array", name)
	}
	var cur int64
	if v.val.kind == vInt {
		cur = v.val.i
	} else {
		s := v.val.String()
		c, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
		if err != nil {
			return Value{}, NewError("expected integer but got %q", s)
		}
		cur = c
	}
	nv := intVal(cur + delta)
	v.val = nv
	return nv, nil
}

// varSite is one compiled variable access. In a proc body the name is
// a compiled local and the site holds its slot; anywhere else slot is
// -1 and the site finds the variable by name, as GetVar does.
type varSite struct {
	name string
	slot int32
}

// siteScalar returns the scalar variable site s refers to in the
// current frame, nil when there is none or it is an array.
func (in *Interp) siteScalar(s *varSite) *variable {
	if v := in.siteVar(s); v != nil && !v.isArray {
		return v
	}
	return nil
}

// siteVar returns the variable site s refers to in the current frame,
// nil for none.
func (in *Interp) siteVar(s *varSite) *variable {
	f := in.currentFrame()
	if s.slot < 0 {
		return f.lookup(s.name)
	}
	return f.slots[s.slot]
}

// createSite binds the name of site s to a new variable in the current
// frame and returns it.
func (in *Interp) createSite(s *varSite) *variable {
	f := in.currentFrame()
	if s.slot < 0 {
		return f.create(s.name)
	}
	v := f.newVar()
	f.slots[s.slot] = v
	return v
}

// setSite stores a typed value into the scalar variable of site s,
// creating the variable when it is missing. Floats are normalized on
// store so the typed engine matches the string engine's
// format-and-reparse round trip.
func (in *Interp) setSite(s *varSite, val Value) error {
	v := in.siteScalar(s)
	if v == nil {
		if in.siteVar(s) != nil {
			return NewError("can't set %q: variable is array", s.name)
		}
		v = in.createSite(s)
	}
	v.val = normFloat(val)
	return nil
}

// incrSite is incr of the scalar variable of site s.
func (in *Interp) incrSite(s *varSite, delta int64) (Value, error) {
	v := in.siteScalar(s)
	if v == nil {
		if v = in.siteVar(s); v == nil {
			nv := intVal(delta)
			in.createSite(s).val = nv
			return nv, nil
		}
	}
	return incrScalar(v, s.name, delta)
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
	v := f.lookup(base)
	if v == nil {
		v = f.create(base)
	}
	if isArr {
		if !v.isArray {
			if v.val.String() != "" {
				return NewError("can't set %q: variable isn't array", name)
			}
			v.isArray = true
			v.arr = make(map[string]string)
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
	v := f.lookup(base)
	if v == nil {
		return NewError("can't unset %q: no such variable", name)
	}
	if isArr {
		if !v.isArray {
			return NewError("can't unset %q: variable isn't array", name)
		}
		if _, ok := v.arr[idx]; !ok {
			return NewError("can't unset %q: no such element in array", name)
		}
		delete(v.arr, idx)
		return nil
	}
	f.bind(base, nil)
	return nil
}

// VarExists reports whether a variable (or array element) exists.
func (in *Interp) VarExists(name string) bool {
	base, idx, isArr := splitArrayRef(name)
	v := in.currentFrame().lookup(base)
	if v == nil {
		return false
	}
	if isArr {
		if !v.isArray {
			return false
		}
		_, ok := v.arr[idx]
		return ok
	}
	return true
}

// arrayVar returns the variable name refers to if it is an array.
func (in *Interp) arrayVar(name string) (*variable, bool) {
	v := in.currentFrame().lookup(name)
	if v == nil || !v.isArray {
		return nil, false
	}
	return v, true
}

// linkVar makes localName in the current frame refer to the variable
// name refers to in the target frame (upvar/global), creating that
// variable when it is missing.
func (in *Interp) linkVar(target *frame, name, localName string) error {
	base, _, isArr := splitArrayRef(name)
	if isArr {
		return NewError("can't upvar to array element %q", name)
	}
	tv := target.lookup(base)
	if tv == nil {
		tv = target.create(base)
	}
	in.currentFrame().bind(localName, tv)
	return nil
}

// varNames returns the names of f's variables, unsorted.
func (f *frame) varNames() []string {
	var names []string
	if f.proc != nil {
		for i, v := range f.slots {
			if v != nil {
				names = append(names, f.proc.slots[i])
			}
		}
	}
	for n := range f.vars {
		names = append(names, n)
	}
	return names
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
	if m := in.metrics; m != nil {
		m.Tcl.Dispatch.Inc(name)
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
		return in.EvalScript(t.script)
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

// recordErrorInfo appends a stack-trace line to the errorInfo global,
// as classic Tcl does while an error unwinds.
func (in *Interp) recordErrorInfo(err error, context string) {
	te, ok := err.(*Error)
	if !ok || te.Code != CodeError || in.errorLogged {
		in.errorLogged = false
		return
	}
	cur, getErr := in.GetGlobalVar("errorInfo")
	if getErr != nil || !in.errorUnwinding {
		cur = te.Value
		in.errorUnwinding = true
	}
	_ = in.SetGlobalVar("errorInfo", cur+"\n    "+context)
}

// acquireFrame grabs a pooled call frame (or makes one) for proc p,
// with a slot and a slab entry per compiled local.
func (in *Interp) acquireFrame(p *Proc) *frame {
	var f *frame
	if n := len(in.framePool); n > 0 {
		f = in.framePool[n-1]
		in.framePool = in.framePool[:n-1]
	} else {
		f = &frame{vars: make(map[string]*variable)}
	}
	f.proc = p
	n := len(p.slots)
	if cap(f.slots) < n {
		f.slots = make([]*variable, n)
		f.slab = make([]variable, n)
	}
	f.slots, f.slab = f.slots[:n], f.slab[:n]
	return f
}

// releaseFrame clears a frame and returns it to the pool. Must only be
// called once the frame is off the stack: no other frame can refer to
// its variables then.
func (in *Interp) releaseFrame(f *frame) {
	if len(f.vars) > 0 {
		clear(f.vars)
	}
	clear(f.slots)
	clear(f.slab[:f.nslab])
	f.proc, f.nslab = nil, 0
	if len(in.framePool) < 64 {
		in.framePool = append(in.framePool, f)
	}
}

// lowerProc parses p's body and lowers it for this interpreter, which
// gives p its slots: the formals first, then every name the body's
// instructions address (compile.go).
func (in *Interp) lowerProc(p *Proc) {
	p.formalSlot = make([]int32, len(p.Args))
	for i, a := range p.Args {
		p.formalSlot[i] = p.slot(a.Name)
	}
	s := in.bld.parse(p.Body)
	s.owner, s.prog = in, in.bld.program(s, p)
	p.compiled = s
}

// callProc calls proc p inside its trace span and profiler record.
func (in *Interp) callProc(p *Proc, argv []string) (string, error) {
	if m := in.metrics; m != nil {
		sp := m.Trace.StartSpan("proc", p.Name)
		defer sp.End()
	}
	if in.prof != nil {
		done := in.profEnterProc(p.Name)
		defer done()
	}
	return in.runProc(p, argv)
}

// runProc pushes a frame, binds arguments into the formals' slots and
// evaluates the proc body. It is apart from callProc so that Go can
// inline its one defer at each of its returns.
func (in *Interp) runProc(p *Proc, argv []string) (string, error) {
	if p.compiled == nil {
		in.lowerProc(p)
	}
	f := in.acquireFrame(p)
	actual := argv[1:]
	nFormal := len(p.Args)
	varArgs := nFormal > 0 && p.Args[nFormal-1].Name == "args"
	for i, formal := range p.Args {
		var val Value
		switch {
		case varArgs && i == nFormal-1:
			var rest []string
			if i < len(actual) {
				rest = actual[i:]
			}
			val = strVal(FormatList(rest))
		case i < len(actual):
			// Interned so numeric arguments (the common case for
			// compute procs) arrive typed and loop bodies never
			// re-parse them.
			val = internValue(actual[i])
		case formal.HasDefault:
			val = internValue(formal.Default)
		default:
			in.releaseFrame(f)
			return "", NewError("no value given for parameter %q to %q", formal.Name, p.Name)
		}
		v := f.newVar()
		v.val = val
		if s := p.formalSlot[i]; s >= 0 {
			f.slots[s] = v
		} else {
			f.vars[formal.Name] = v
		}
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
	res, err := in.evalScriptV(p.compiled)
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
	return res.String(), nil
}

func asTclError(err error, out **Error) bool {
	te, ok := err.(*Error)
	if ok {
		*out = te
	}
	return ok
}
