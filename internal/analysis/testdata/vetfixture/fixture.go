// Package vetfixture contains one deliberate violation of every
// wafevet rule, plus the accepted idioms each rule must NOT flag.
// The analysis tests type-check this package through the wafevet
// engine and assert exactly the "want" findings are reported. The
// directory lives under testdata/ so ./... builds skip it.
package vetfixture

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"wafe/internal/obs"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

type server struct {
	mu   sync.Mutex
	in   *tcl.Interp
	tm   *obs.TclMetrics
	hits int64
}

// badNilGuard dereferences the optional metrics pointer unguarded.
func (s *server) badNilGuard() {
	s.tm.ScriptCacheHits.Inc() // want nilguard
}

// goodNilGuard uses every accepted guard shape; none may be flagged.
func (s *server) goodNilGuard() {
	if s.tm != nil {
		s.tm.ScriptCacheHits.Inc()
	}
	if m := s.tm; m != nil {
		m.ScriptCacheHits.Inc()
	}
	if s.tm != nil && s.tm.ScriptCacheHits.Load() > 0 {
		s.tm.ScriptCacheHits.Inc()
	}
	if s.tm == nil || s.tm.ScriptCacheHits.Load() == 0 {
		return
	}
	s.tm.ScriptCacheHits.Inc()
	fresh := obs.New()
	fresh.Tcl.ScriptCacheHits.Inc()
}

// badLockedEval evaluates a script with the server mutex held: the
// script may fire a callback that re-enters the server and deadlocks.
func (s *server) badLockedEval() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in.Eval("hook") // want lockedeval
}

// goodLockedEval releases the mutex before evaluating.
func (s *server) goodLockedEval() {
	s.mu.Lock()
	script := "hook"
	s.mu.Unlock()
	s.in.Eval(script)
}

// badScan discards parse errors both ways the rule recognizes.
func badScan(text string) int {
	n, _ := strconv.Atoi(text)  // want checkscan
	fmt.Sscanf(text, "%d", &n)  // want checkscan
	return n
}

// goodScan handles the error, and suppresses one intentional discard.
func goodScan(text string) int {
	n, err := strconv.Atoi(text)
	if err != nil {
		return 0
	}
	m, _ := strconv.Atoi(text) //wafevet:ignore checkscan (fixture: directive must suppress this)
	return n + m
}

// badAtomic mixes atomic and plain access to the same field.
func (s *server) badAtomic() int64 {
	atomic.AddInt64(&s.hits, 1)
	return s.hits // want atomics
}

// badRedisplayClass wires a Redisplay proc that clears the whole
// window and paints without ever looking at the clip.
var badRedisplayClass = &xt.Class{
	Name: "vetBad",
	Redisplay: func(w *xt.Widget) {
		d := w.Display()
		d.ClearWindow(w.Window())                      // want redisplayclip
		d.DrawString(w.Window(), d.NewGC(), 2, 12, "x") // want redisplayclip
	},
}

// goodRedisplayClass consults the clip in a helper one call deep; the
// rule must follow the closure and stay quiet.
var goodRedisplayClass = &xt.Class{
	Name:      "vetGood",
	Redisplay: goodRedisplay,
}

func goodRedisplay(w *xt.Widget) {
	goodRedisplayPaint(w)
}

func goodRedisplayPaint(w *xt.Widget) {
	if !w.ClipIntersects(2, 2, 10, 10) {
		return
	}
	w.Display().DrawString(w.Window(), w.Display().NewGC(), 2, 12, "x")
}
