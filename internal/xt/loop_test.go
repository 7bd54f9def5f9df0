package xt

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPostFromLoopWithFullQueue: Post called on the event-loop
// goroutine with the queue at capacity must run the closure inline
// instead of block-sending — the loop cannot drain the queue while it
// is the one waiting on it.
func TestPostFromLoopWithFullQueue(t *testing.T) {
	app := NewTestApp("wafe")
	ran := false
	app.Post(func() {
		// We are on the loop goroutine: fill the queue to capacity so
		// the next Post hits the full-queue path.
		for i := 0; i < cap(app.posted); i++ {
			app.posted <- func() {}
		}
		app.Post(func() {
			ran = true
			app.Quit(0)
		})
	})
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MainLoop deadlocked: Post from the loop goroutine blocked on its own queue")
	}
	if !ran {
		t.Error("posted closure never ran")
	}
}

// TestPostFromReaderWithFullQueueBlocks: off-loop senders must still
// block (not drop, not run inline on the wrong goroutine) and be
// drained in order.
func TestPostFromReaderWithFullQueue(t *testing.T) {
	app := NewTestApp("wafe")
	const extra = 64
	total := cap(app.posted) + extra
	seen := 0
	go func() {
		for i := 0; i < total; i++ {
			app.Post(func() { seen++ })
		}
		app.Post(func() { app.Quit(0) })
	}()
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MainLoop did not quit")
	}
	if seen != total {
		t.Errorf("ran %d closures, want %d", seen, total)
	}
}

// TestPostFunnelSerializesSessionState pins the cross-goroutine idioms
// wafevet's sessionowner rule sanctions: session-owned state (the
// widget tree) is only ever touched via App.Post or the
// AddInputEvents funnel, which marshal onto the loop goroutine. Many
// producers hammer one widget concurrently; under -race this proves
// the funnel serializes every access without any locking in xt itself.
func TestPostFunnelSerializesSessionState(t *testing.T) {
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, err := app.CreateWidget("l", testLabelClass, top, nil, true)
	if err != nil {
		t.Fatalf("create label: %v", err)
	}

	const posters, perPoster, inputLines = 4, 50, 50
	want := posters*perPoster + inputLines
	touches := 0
	touch := func(tag string, i int) func() {
		return func() {
			w.SetResourceValue(qLabel, fmt.Sprintf("%s-%d", tag, i))
			_ = w.Str(qLabel) // read back on the loop, same funnel
			if touches++; touches == want {
				app.Quit(0)
			}
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				app.Post(touch(fmt.Sprintf("post%d", p), i))
			}
		}(p)
	}

	events := make(chan InputEvent)
	app.AddInputEvents(events, func(ev InputEvent) {
		if !ev.EOF {
			touch("event", len(ev.Line))()
		}
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inputLines; i++ {
			events <- InputEvent{Line: fmt.Sprintf("ev %d", i)}
		}
		close(events)
	}()

	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MainLoop did not quit after all funnel deliveries")
	}
	wg.Wait()
	if touches != want {
		t.Errorf("loop observed %d touches, want %d", touches, want)
	}
}

// TestTimerRemovedBySiblingInBatch: XtRemoveTimeOut guarantees a
// removed timeout never fires — including removal by an earlier timer
// callback in the same expired batch, after runDueTimers has already
// collected both.
func TestTimerRemovedBySiblingInBatch(t *testing.T) {
	app := NewTestApp("wafe")
	var t2 *Timer
	t1Fired, t2Fired := false, false
	app.AddTimeout(1*time.Millisecond, func() {
		t1Fired = true
		t2.Remove()
	})
	t2 = app.AddTimeout(2*time.Millisecond, func() { t2Fired = true })
	app.AddTimeout(50*time.Millisecond, func() { app.Quit(0) })
	// Let both deadlines expire before the loop starts so a single
	// runDueTimers pass collects them into one due batch.
	time.Sleep(20 * time.Millisecond)
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("MainLoop did not quit")
	}
	if !t1Fired {
		t.Error("first timer did not fire")
	}
	if t2Fired {
		t.Error("timer removed by a sibling in the same due batch still fired")
	}
}

// TestPostChainYieldsToTimersAndRepaint: a turn of the loop runs only
// the closures queued when it began, so an input source that keeps
// posting cannot hold off the timers or the repaint of what it damaged.
func TestPostChainYieldsToTimersAndRepaint(t *testing.T) {
	const chain = 100000
	app := NewTestApp("wafe")
	top := newShell(t, app)
	w, err := app.CreateWidget("l", testLabelClass, top, map[string]string{"label": "before"}, true)
	if err != nil {
		t.Fatal(err)
	}
	top.Realize()
	app.Pump()
	painted := func() bool {
		for _, s := range w.Display().StringsDrawn(w.Window()) {
			if s == "after" {
				return true
			}
		}
		return false
	}
	// -1 until it happens; then the number of closures run so far.
	n, firedAt, paintedAt := 0, -1, -1
	var step func()
	step = func() {
		n++
		switch {
		case n == 1:
			if err := w.SetValues("label", "after"); err != nil {
				t.Error(err)
			}
		case paintedAt < 0 && painted():
			paintedAt = n
		}
		if n < chain {
			app.Post(step)
			return
		}
		app.Quit(0)
	}
	app.AddTimeout(time.Millisecond, func() { firedAt = n })
	app.Post(step)
	done := make(chan int, 1)
	go func() { done <- app.MainLoop() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("MainLoop did not quit")
	}
	if firedAt < 0 || firedAt >= chain {
		t.Errorf("1 ms timeout fired at closure %d of a %d-closure chain (-1: never)", firedAt, chain)
	}
	if paintedAt < 0 || paintedAt >= chain {
		t.Errorf("damaged label repainted at closure %d of a %d-closure chain (-1: never)", paintedAt, chain)
	}
}
