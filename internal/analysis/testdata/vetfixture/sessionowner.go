// sessionowner fixture: one violation per touch kind the rule
// recognizes, plus the accepted idioms (Post routing, loop-owning
// goroutines, wiring reads, atomics) that must stay quiet.
package vetfixture

import (
	"wafe/internal/frontend"
	"wafe/internal/tcl"
	"wafe/internal/xt"
)

type session struct {
	app *xt.App
	in  *tcl.Interp
	f   *frontend.Frontend
	w   *xt.Widget
}

// badOffLoopTouches spawns a goroutine that touches session-owned
// state directly: a method call on the interpreter, a counter write on
// the frontend, and a widget method.
func (s *session) badOffLoopTouches() {
	go func() {
		s.in.Eval("hook")                    // want sessionowner
		s.f.CommandLines++                   // want sessionowner
		s.w.SetResourceValue(xt.QWidth, 100) // want sessionowner
	}()
}

// badOffLoopNamed spawns a named method whose body (and callee) touch
// session state; the call-graph closure must find both.
func (s *session) badOffLoopNamed() {
	go s.offLoopWorker()
}

func (s *session) offLoopWorker() {
	s.app.Quit(0) // want sessionowner
	s.offLoopHelper()
}

func (s *session) offLoopHelper() {
	s.in.SetVar("x", "1") // want sessionowner
}

// goodPostRouting is the sanctioned pattern: the goroutine only
// enqueues work; the closure runs on the owning loop.
func (s *session) goodPostRouting() {
	go func() {
		s.app.Post(func() {
			s.in.Eval("hook")
			s.f.CommandLines++
		})
	}()
}

// goodLoopOwner runs the event loop itself: it IS the owner, so its
// touches (before and after the loop) are legitimate.
func (s *session) goodLoopOwner() {
	go func() {
		s.in.SetVar("ready", "1")
		s.app.MainLoop()
		s.f.CommandLines++
	}()
}

// goodWiringRead reads pointer-typed wiring from a goroutine, which
// the convention allows (assigned once at construction), and routes
// the actual touch through Post.
func (s *session) goodWiringRead(sess *frontend.Session) {
	go func() {
		sess.W.App.Post(func() {})
	}()
}
