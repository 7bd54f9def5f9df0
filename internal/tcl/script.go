package tcl

import (
	"fmt"
	"strings"
	"time"

	"wafe/internal/obs"
)

// This file adds the Tcl 7→8 style "compile once, evaluate many"
// pipeline. A Script is the parser's command/word/token list, produced
// once and reusable across evaluations; Eval becomes compile+eval with
// an LRU intern cache keyed by the source string. Values remain
// strings throughout — compilation only amortizes tokenization, it
// never introduces a second value representation, so the string-only
// semantics Wafe relies on are untouched.

// Script is an immutable compiled script: the sequence of parsed
// commands produced by the parser. A Script may be evaluated any
// number of times, on any interpreter; command names are resolved at
// invocation time, so redefining or renaming a proc between
// evaluations behaves exactly as it would with re-parsed source.
type Script struct {
	// Source is the script text the Script was compiled from.
	Source string

	cmds []*parsedCommand

	// parseErr records the parse error that terminated compilation, if
	// any. The commands preceding the error are kept so that evaluation
	// can run them before reporting the error, exactly as the
	// incremental parse-as-you-go evaluator did.
	parseErr *Error
	// parseErrOff is the byte offset of the parse error in Source
	// (valid only when parseErr != nil).
	parseErrOff int
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

// compileScript parses src into a Script. It never fails: a parse
// error is recorded on the Script and replayed at evaluation time,
// after the commands that precede it have run (matching the
// incremental evaluator, which only discovers a parse error once
// evaluation reaches the malformed command).
func compileScript(src string) *Script {
	s := &Script{Source: src}
	p := newParser(src)
	for {
		cmd, err := p.nextCommand()
		if err != nil {
			msg := err.Error()
			if pe, ok := err.(*ParseError); ok {
				s.parseErrOff = pe.Off
				line, col := LineCol(src, pe.Off)
				msg = fmt.Sprintf("%s (line %d, column %d)", msg, line, col)
			}
			s.parseErr = &Error{Code: CodeError, Value: msg}
			return s
		}
		if cmd == nil {
			return s
		}
		for i := range cmd.words {
			compileWordTokens(cmd.words[i].tokens)
		}
		s.cmds = append(s.cmds, cmd)
	}
}

// compileWordTokens eagerly compiles the nested [script] substitutions
// of a word so that evaluation never re-parses them.
func compileWordTokens(toks []token) {
	for i := range toks {
		t := &toks[i]
		switch t.kind {
		case tokCommand:
			t.script = compileScript(t.text)
		case tokVar:
			if t.hasIdx {
				compileWordTokens(t.index)
			}
		}
	}
}

// Compile parses src into a reusable Script. When src is malformed the
// returned Script is still evaluable — it runs the well-formed prefix
// and then reports the parse error, exactly as Eval on the raw source
// would — and the error is also returned for callers that want to
// reject bad scripts up front.
func Compile(src string) (*Script, error) {
	s := compileScript(src)
	if s.parseErr != nil {
		return s, s.parseErr
	}
	return s, nil
}

// IsComplete reports whether the script parsed without error.
func (s *Script) IsComplete() bool { return s.parseErr == nil }

// maxCachedSrcLen bounds the size of sources kept in the intern cache;
// larger scripts (generated programs, file contents) compile fresh so
// a single entry cannot dominate the cache's memory.
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

func (c *lruCache) len() int { return len(c.m) }

// SetScriptCacheSize resizes the compiled-script intern cache. A size
// of zero (or less) disables caching entirely, so every Eval compiles
// fresh — the knob the differential tests use to compare the cached
// and uncached paths. Resizing clears the cache.
func (in *Interp) SetScriptCacheSize(n int) {
	if n <= 0 {
		in.scriptCache = nil
		return
	}
	in.scriptCache = newLRUCache(n)
}

// SetExprCacheSize resizes the compiled-expression cache; zero (or
// less) disables it so every expr re-parses its source.
func (in *Interp) SetExprCacheSize(n int) {
	if n <= 0 {
		in.exprCache = nil
		return
	}
	in.exprCache = newLRUCache(n)
}

// ScriptCacheLen reports how many compiled scripts are interned
// (diagnostics and tests).
func (in *Interp) ScriptCacheLen() int {
	if in.scriptCache == nil {
		return 0
	}
	return in.scriptCache.len()
}

// compileCached returns the interned Script for src, compiling it on a
// cache miss.
func (in *Interp) compileCached(src string) *Script {
	if in.scriptCache == nil || len(src) > maxCachedSrcLen {
		return compileScript(src)
	}
	if v, ok := in.scriptCache.get(src); ok {
		if m := in.obs; m != nil {
			m.ScriptCacheHits.Inc()
		}
		return v.(*Script)
	}
	if m := in.obs; m != nil {
		m.ScriptCacheMisses.Inc()
	}
	s := compileScript(src)
	in.scriptCache.put(src, s)
	return s
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
	m, t, prof := in.obs, in.trace, in.prof
	if m == nil && t == nil && prof == nil {
		return in.evalScriptBody(s)
	}
	var sp obs.SpanCtx
	if t != nil && s != nil {
		sp = t.StartSpan("eval", spanName(s.Source))
	}
	if prof != nil {
		in.profCmdChild = append(in.profCmdChild, 0)
	}
	start := time.Now()
	res, err := in.evalScriptBody(s)
	d := time.Since(start)
	if m != nil {
		m.Evals.Inc()
		m.EvalLatency.Observe(d)
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
	in.nesting++
	defer func() { in.nesting-- }()
	if in.nesting > in.maxNesting {
		return Value{}, NewError("too many nested calls to Eval (infinite loop?)")
	}
	if in.nesting == 1 {
		// A fresh top-level evaluation starts a fresh traceback.
		in.errorUnwinding = false
	}
	if in.oracle != nil {
		return in.oracle(s)
	}
	return in.execScript(s)
}
