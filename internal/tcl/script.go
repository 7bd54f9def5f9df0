package tcl

import (
	"strings"
	"time"

	"wafe/internal/obs"
)

// This file adds the Tcl 7→8 style "compile once, evaluate many"
// pipeline. A Script is the parser's command/word/token list, and it
// carries the Program it was lowered into (compile.go). Eval runs a
// source it has seen before from an LRU cache keyed by the source
// string; see Interp.Eval for which sources enter it. Values remain
// strings throughout — compilation only amortizes tokenization, it
// never introduces a second value representation, so the string-only
// semantics Wafe relies on are untouched.

// Script is a compiled script: the sequence of parsed commands produced
// by the parser, and the Program they were lowered into. A Script may
// be evaluated any number of times; command names are resolved at
// invocation time, so redefining or renaming a proc between
// evaluations behaves exactly as it would with re-parsed source.
type Script struct {
	// Source is the script text the Script was compiled from.
	Source string

	cmds []parsedCommand

	// parseErr records the parse error that terminated compilation, if
	// any. The commands preceding the error are kept so that evaluation
	// can run them before reporting the error, exactly as the
	// incremental parse-as-you-go evaluator did.
	parseErr *Error
	// parseErrOff is the byte offset of the parse error in Source
	// (valid only when parseErr != nil).
	parseErrOff int

	// prog is the Program the Script was lowered into for owner, the
	// one interpreter that runs it: Programs hold that interpreter's
	// inline caches (see Interp.program).
	owner *Interp
	prog  *Program
}

// ParseErrorInfo reports the parse error recorded on the script, if
// any: the bare message (without the line/column suffix), and the
// 1-based line and column of the offending construct in Source.
func (s *Script) ParseErrorInfo() (msg string, line, col int, ok bool) {
	if s.parseErr == nil {
		return "", 0, 0, false
	}
	line, col = LineCol(s.Source, s.parseErrOff)
	msg = s.parseErr.Value
	if i := strings.LastIndex(msg, " (line "); i >= 0 {
		msg = msg[:i]
	}
	return msg, line, col, true
}

// compileScript parses src into a Script on the heap, with no owner.
func compileScript(src string) *Script { return (&builder{}).script(src) }

// Compile parses src into a reusable Script. When src is malformed the
// returned Script is still evaluable — it runs the well-formed prefix
// and then reports the parse error, exactly as Eval on the raw source
// would — and the error is also returned for callers that want to
// reject bad scripts up front.
func Compile(src string) (*Script, error) {
	return scriptErr(compileScript(src))
}

// Compile is the package Compile for a Script that this interpreter
// owns: it is lowered into its Program now, so a callback or timeout
// compiled when it is registered pays neither step when it fires. The
// Script is not cached.
func (in *Interp) Compile(src string) (*Script, error) {
	return scriptErr(in.bld.script(src))
}

func scriptErr(s *Script) (*Script, error) {
	if s.parseErr != nil {
		return s, s.parseErr
	}
	return s, nil
}

// maxCachedSrcLen bounds the size of sources kept in the script cache
// or compiled into a scratch; larger scripts (generated programs, file
// contents) compile onto the heap and are dropped after the run, so a
// single source cannot dominate the cache's or a scratch's memory.
const maxCachedSrcLen = 64 * 1024

const (
	defaultScriptCacheSize = 512
	defaultExprCacheSize   = 256
)

// lruEntry is one node of the cache's recency list.
type lruEntry struct {
	key        string
	val        any
	prev, next *lruEntry
}

// lruCache is a small string-keyed cache with least-recently-used
// eviction. head is the most recently used entry.
type lruCache struct {
	cap  int
	m    map[string]*lruEntry
	head *lruEntry
	tail *lruEntry
}

func newLRUCache(cap int) *lruCache {
	return &lruCache{cap: cap, m: make(map[string]*lruEntry, cap)}
}

func (c *lruCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *lruCache) pushFront(e *lruEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lruCache) get(key string) (any, bool) {
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

func (c *lruCache) put(key string, val any) {
	if e, ok := c.m[key]; ok {
		e.val = val
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	e := &lruEntry{key: key, val: val}
	c.m[key] = e
	c.pushFront(e)
	if len(c.m) > c.cap {
		evict := c.tail
		c.unlink(evict)
		delete(c.m, evict.key)
	}
}

// SetScriptCacheSize resizes the compiled-script intern cache. A size
// of zero (or less) disables caching entirely, so every Eval compiles
// fresh — the knob the differential tests use to compare the cached
// and uncached paths. Resizing clears the cache.
//
//wafe:seam the differential tests compare cached and uncached evaluation
func (in *Interp) SetScriptCacheSize(n int) {
	if n <= 0 {
		in.scriptCache = nil
		return
	}
	in.scriptCache = newLRUCache(n)
}

// SetExprCacheSize resizes the compiled-expression cache; zero (or
// less) disables it so every expr re-parses its source.
//
//wafe:seam the differential tests compare cached and uncached evaluation
func (in *Interp) SetExprCacheSize(n int) {
	if n <= 0 {
		in.exprCache = nil
		return
	}
	in.exprCache = newLRUCache(n)
}

// compileCached returns the cached Script for src, compiling and
// caching it on a miss. The builtins that run a body many times within
// one call (foreach, time, the generic while and for) cache it on first
// use; everything else goes through Eval's admission.
func (in *Interp) compileCached(src string) *Script {
	if in.scriptCache == nil || len(src) > maxCachedSrcLen {
		return in.bld.script(src)
	}
	if s, ok := in.lookup(src); ok {
		return s
	}
	s := in.bld.script(src)
	in.scriptCache.put(src, s)
	return s
}

// lookup returns the cached Script for src and counts the hit or miss.
func (in *Interp) lookup(src string) (*Script, bool) {
	v, ok := in.scriptCache.get(src)
	if m := in.metrics; m != nil {
		if ok {
			m.Tcl.ScriptCacheHits.Inc()
		} else {
			m.Tcl.ScriptCacheMisses.Inc()
		}
	}
	s, _ := v.(*Script)
	return s, ok
}

// seenBits sizes the admission table (Interp.seen): 1<<seenBits
// source hashes.
const seenBits = 10

// Eval evaluates a script and returns the result of its last command.
// A source in the script cache runs from it. Any other source is
// compiled; it enters the cache only on its second sighting, which the
// admission table records by source hash. A first sighting is compiled
// into a scratch from the interpreter's pool, run, and forgotten. A
// hash collision only admits a source early.
func (in *Interp) Eval(src string) (string, error) {
	if len(src) > maxCachedSrcLen {
		return in.EvalScript(in.bld.script(src))
	}
	if in.scriptCache == nil {
		return in.evalFirst(src)
	}
	if s, ok := in.lookup(src); ok {
		return in.EvalScript(s)
	}
	h := sourceHash(src)
	if slot := &in.seen[h>>(64-seenBits)]; *slot != h {
		*slot = h
		return in.evalFirst(src)
	}
	s := in.bld.script(src)
	in.scriptCache.put(src, s)
	return in.EvalScript(s)
}

// evalFirst compiles src into a scratch, runs it and releases the
// scratch. The result is a Value copied out of the run, so nothing
// refers into the scratch once it is reused.
func (in *Interp) evalFirst(src string) (string, error) {
	sc := in.takeScratch()
	v, err := in.evalScriptV(sc.b.script(src))
	in.releaseScratch(sc)
	return v.String(), err
}

// sourceHash is 64-bit FNV-1a over the source's 8-byte words; its top
// seenBits bits pick the admission slot. It is fixed, so which sources
// share a slot does not vary between runs.
func sourceHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for ; len(s) >= 8; s = s[8:] {
		h = (h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)) * 1099511628211
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// EvalScript evaluates a compiled script and returns the result of its
// last command. The completion-code and traceback behavior is
// identical to Eval on the script's source. Top-level evaluations
// (not nested [command] substitutions or loop bodies) are counted and
// timed when observability is attached, opened as "eval" spans when
// tracing is attached, and rooted into the profile when a profiling
// window is open.
func (in *Interp) EvalScript(s *Script) (string, error) {
	v, err := in.evalScriptV(s)
	return v.String(), err
}

// evalScriptV is EvalScript returning the typed value of the last
// command, so a numeric result produced by the bytecode engine (an
// expr, an incr) crosses nested-script boundaries without a
// format/re-parse round trip. The returned Value is always
// "storage-normalized": either a string, or a number whose machine
// representation round-trips through its string form (normFloat).
func (in *Interp) evalScriptV(s *Script) (Value, error) {
	if in.nesting != 0 {
		return in.evalScriptBody(s)
	}
	m, prof := in.metrics, in.prof
	if m == nil && prof == nil {
		return in.evalScriptBody(s)
	}
	var sp obs.SpanCtx
	if m != nil && s != nil {
		sp = m.Trace.StartSpan("eval", spanName(s.Source))
	}
	if prof != nil {
		in.profCmdChild = append(in.profCmdChild, 0)
	}
	start := time.Now()
	res, err := in.evalScriptBody(s)
	d := time.Since(start)
	if m != nil {
		m.Tcl.EvalLatency.Observe(d)
	}
	if prof != nil {
		in.profToplevel(prof, d)
	}
	sp.End()
	return res, err
}

// evalScriptBody manages the nesting guard and runs the script on the
// bytecode VM (or, in the engine tests, on the oracle).
func (in *Interp) evalScriptBody(s *Script) (Value, error) {
	if s == nil {
		return Value{}, nil
	}
	// Restored, not decremented: an error inside an inlined [script]
	// leaves that script's level in place (execCmd).
	saved := in.nesting
	in.nesting++
	defer func() { in.nesting = saved }()
	if in.nesting > in.maxNesting {
		return Value{}, errNesting()
	}
	if in.nesting == 1 {
		// A fresh top-level evaluation starts a fresh traceback.
		in.errorUnwinding, in.errorLogged = false, false
	}
	if in.oracle != nil {
		return in.oracle(s)
	}
	return in.execScript(s)
}
