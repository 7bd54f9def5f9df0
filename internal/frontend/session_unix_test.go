//go:build unix

package frontend

import (
	"strings"
	"testing"
	"time"
)

// TestSessionCrashRespawnIsolation: one session's supervised backend
// keeps crashing and is respawned under the session's own restart
// policy (the --respawn semantics, scoped to the session); a sibling
// session keeps dispatching commands the whole time and never notices.
func TestSessionCrashRespawnIsolation(t *testing.T) {
	backend := writeBackend(t, `#!/bin/sh
read line
echo "booted $line"
exit 42
`)
	term := &syncBuffer{}
	a, err := NewSession(SessionConfig{PrivateDisplay: true, Terminal: term})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = a.W.App.DB.Enter("*InitCom", "boot")
	sup, err := a.Supervise(backend, nil, RestartPolicy{
		MaxRestarts: 2,
		Backoff:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	aDone := make(chan sessionResult, 1)
	go func() {
		code, err := a.Run()
		aDone <- sessionResult{code, err}
	}()

	// The sibling dispatches while a's backend crashes and respawns.
	_, bc, bDone := startSession(t, SessionConfig{})
	for i := 0; i < 20; i++ {
		bc.send("%echo tick")
		if got := bc.readLine(); got != "tick" {
			t.Fatalf("sibling echo = %q, want \"tick\"", got)
		}
		time.Sleep(time.Millisecond)
	}

	r := waitSession(t, aDone)
	if r.err != nil {
		t.Fatalf("session a Run err = %v", r.err)
	}
	if r.code != 1 {
		t.Errorf("session a exit code = %d, want 1 after giving up on a crashing backend", r.code)
	}
	if sup.Restarts() != 2 {
		t.Errorf("Restarts() = %d, want 2", sup.Restarts())
	}
	if reported(sup, "lastExitClass") != ExitCrash {
		t.Errorf("lastExitClass = %q, want %q", reported(sup, "lastExitClass"), ExitCrash)
	}
	// Three incarnations, each receiving InitCom after its (re)spawn.
	if got := strings.Count(term.String(), "booted boot"); got != 3 {
		t.Errorf("backend booted %d times, want 3; terminal:\n%s", got, term.String())
	}

	// The sibling is still healthy after a's supervisor gave up.
	bc.send("%echo still-up")
	if got := bc.readLine(); got != "still-up" {
		t.Errorf("sibling echo after crash storm = %q, want \"still-up\"", got)
	}
	bc.send("%quit")
	if r := waitSession(t, bDone); r.err != nil || r.code != 0 {
		t.Errorf("sibling Run = %d, %v; want 0, nil", r.code, r.err)
	}
}
