package frontend

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// sessionResult is what Session.Run returned.
type sessionResult struct {
	code int
	err  error
}

// startSession builds a private-display Session attached to the server
// end of an in-memory pipe and runs its event loop; the returned
// client drives it like a serve-mode backend would.
func startSession(t *testing.T, cfg SessionConfig) (*Session, *client, <-chan sessionResult) {
	t.Helper()
	cfg.PrivateDisplay = true
	if cfg.Terminal == nil {
		cfg.Terminal = &syncBuffer{}
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clientEnd, serverEnd := net.Pipe()
	s.AttachConn(serverEnd)
	done := make(chan sessionResult, 1)
	go func() {
		code, err := s.Run()
		done <- sessionResult{code, err}
	}()
	t.Cleanup(func() {
		clientEnd.Close()
		serverEnd.Close()
		s.Close()
	})
	return s, &client{t: t, conn: clientEnd, br: bufio.NewReader(clientEnd), id: s.ID}, done
}

func waitSession(t *testing.T, done <-chan sessionResult) sessionResult {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("session did not finish")
		return sessionResult{}
	}
}

// TestSessionIsolation: many Sessions in one process, every one
// creating the same widget name, the same global variable, and the
// same secondary display name. Each must see only its own values —
// under -race this also proves the sessions share no unsynchronized
// process-global state.
func TestSessionIsolation(t *testing.T) {
	const sessions = 12
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, c, done := startSession(t, SessionConfig{})
			// Colliding widget name, variable name, and secondary
			// display name across every session.
			c.send(fmt.Sprintf("%%label l topLevel label text-%d", i))
			c.send(fmt.Sprintf("%%set v %d", i))
			c.send("%echo [gV l label]=[set v]")
			want := fmt.Sprintf("text-%d=%d", i, i)
			if got := c.readLine(); got != want {
				errs <- fmt.Errorf("session %s: got %q, want %q", s.ID, got, want)
			}
			c.send("%quit")
			if r := waitSession(t, done); r.err != nil || r.code != 0 {
				errs <- fmt.Errorf("session %s: Run = %d, %v", s.ID, r.code, r.err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionFormAllowResize: two sessions, each on its own event loop,
// toggle formAllowResize on their forms while relaying them out. The
// flag is per widget, so under -race this proves Form keeps no
// process-wide state, and each session sees only its own setting: the
// fixed form keeps its realized width, the other grows with its child.
func TestSessionFormAllowResize(t *testing.T) {
	type side struct {
		c            *client
		done         <-chan sessionResult
		allow, width string
	}
	var sides []side
	for _, v := range []struct{ allow, width string }{{"false", "60"}, {"true", "119"}} {
		_, c, done := startSession(t, SessionConfig{})
		c.send("%form f topLevel")
		c.send("%label l f label x width 50")
		c.send("%realize")
		sides = append(sides, side{c, done, v.allow, v.width})
	}
	for i := 0; i < 50; i++ {
		for _, s := range sides {
			s.c.send("%formAllowResize f " + s.allow)
			s.c.send(fmt.Sprintf("%%sV l width %d", 60+i))
		}
	}
	for _, s := range sides {
		s.c.send("%echo [gV f width]")
		if got := s.c.readLine(); got != s.width {
			t.Errorf("session %s (allow %s): form width %q, want %q", s.c.id, s.allow, got, s.width)
		}
		s.c.send("%quit")
		if r := waitSession(t, s.done); r.err != nil || r.code != 0 {
			t.Errorf("session %s: Run = %d, %v", s.c.id, r.code, r.err)
		}
	}
}

// TestSessionPanicContained: a panic on one session's event loop is
// converted into an error return instead of taking the process — a
// sibling session keeps dispatching commands throughout.
func TestSessionPanicContained(t *testing.T) {
	a, _, aDone := startSession(t, SessionConfig{})
	_, bc, bDone := startSession(t, SessionConfig{})

	a.W.App.Post(func() { panic("injected session failure") })
	r := waitSession(t, aDone)
	if r.code != 1 {
		t.Errorf("panicking session Run code = %d, want 1", r.code)
	}
	if r.err == nil || !strings.Contains(r.err.Error(), "injected session failure") {
		t.Errorf("Run err = %v, want the panic value", r.err)
	}
	if r.err != nil && !strings.Contains(r.err.Error(), "session "+a.ID+" panic") {
		t.Errorf("Run err = %v, want it to name session %s", r.err, a.ID)
	}

	bc.send("%echo sibling-still-up")
	if got := bc.readLine(); got != "sibling-still-up" {
		t.Errorf("sibling echo = %q, want \"sibling-still-up\"", got)
	}
	bc.send("%quit")
	if r := waitSession(t, bDone); r.err != nil || r.code != 0 {
		t.Errorf("sibling Run = %d, %v; want 0, nil", r.code, r.err)
	}
}

// TestSessionCloseIdempotent: Close may run twice (server teardown and
// a defer) without panicking or double-releasing.
func TestSessionCloseIdempotent(t *testing.T) {
	s, c, done := startSession(t, SessionConfig{})
	c.send("%quit")
	waitSession(t, done)
	s.Close()
	s.Close()
}

// bulkPopupLines returns the protocol lines that build a popup the
// shape of the end-to-end bulk workload's rebuild: a transientShell
// holding a form of 40 label/command/toggle/asciiText children chained
// by fromVert, plus a 500-item list, popped up.
func bulkPopupLines() []string {
	kinds := [...]string{"label", "command", "toggle", "asciiText"}
	lines := []string{"%transientShell pop topLevel", "%form pf pop"}
	for i := 0; i < 40; i++ {
		kind := kinds[i%len(kinds)]
		res := "label"
		if kind == "asciiText" {
			res = "string"
		}
		line := fmt.Sprintf("%%%s w%d pf %s {item %d}", kind, i, res, i)
		if i > 0 {
			line += fmt.Sprintf(" fromVert w%d", i-1)
		}
		lines = append(lines, line)
	}
	items := make([]string, 500)
	for j := range items {
		items[j] = fmt.Sprintf("row%03d", j)
	}
	lines = append(lines, `%list wl pf fromVert w39 list "`+strings.Join(items, `\n`)+`"`, "%popup pop none")
	return lines
}

// TestSessionConcurrentWidgetCreation: eight sessions, each on its own
// event loop, build and destroy the bulk-shaped popup fifty times. The
// compiled resource layouts of the widget classes are shared by every
// session, while default conversions and class translation tables are
// cached per session; under -race this proves the sharing is safe and
// each session still reads back only its own widgets.
func TestSessionConcurrentWidgetCreation(t *testing.T) {
	const sessions, rounds = 8, 50
	build := bulkPopupLines()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, c, done := startSession(t, SessionConfig{})
			for r := 0; r < rounds; r++ {
				for _, line := range build {
					c.send(line)
				}
				c.send(fmt.Sprintf("%%sV w0 label {session %d round %d}", i, r))
				c.send("%echo [gV w0 label]/[gV w39 string]/[llength [gV wl list]]")
				want := fmt.Sprintf("session %d round %d/item 39/500", i, r)
				if got := c.readLine(); got != want {
					errs <- fmt.Errorf("session %s: got %q, want %q", s.ID, got, want)
					return
				}
				c.send("%destroyWidget pop")
				c.send("%echo [catch {gV pf width}]")
				if got := c.readLine(); got != "1" {
					errs <- fmt.Errorf("session %s: form still readable after destroy (%q)", s.ID, got)
					return
				}
			}
			c.send("%quit")
			if r := waitSession(t, done); r.err != nil || r.code != 0 {
				errs <- fmt.Errorf("session %s: Run = %d, %v", s.ID, r.code, r.err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
