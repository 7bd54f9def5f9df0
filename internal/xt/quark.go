package xt

import "sync"

// Quark is an interned symbol for one resource-specification component
// — a widget name, class name, resource name or resource class
// (XrmQuark). Interning turns every comparison on the resource-lookup
// hot path into a small-int equality and every database level into a
// map keyed by int instead of string.
type Quark int32

// NullQuark is the reserved zero quark (XrmStringToQuark("") in spirit:
// no valid component interns to it).
const NullQuark Quark = 0

// quarkTab is the process-wide intern table, as Xlib's quark table is.
// A single table lets the package-global widget classes intern their
// resource lists once and share them across every App. Reads take the
// shared lock only; interning a new string is the rare path.
var quarkTab = struct {
	mu sync.RWMutex
	m  map[string]Quark
}{
	m: map[string]Quark{},
}

// StringToQuark interns s and returns its quark (XrmStringToQuark).
// Equal strings always return the same quark; quarks are never
// released.
func StringToQuark(s string) Quark {
	quarkTab.mu.RLock()
	q, ok := quarkTab.m[s]
	quarkTab.mu.RUnlock()
	if ok {
		return q
	}
	quarkTab.mu.Lock()
	defer quarkTab.mu.Unlock()
	if q, ok := quarkTab.m[s]; ok {
		return q
	}
	q = Quark(len(quarkTab.m) + 1) // 0 is NullQuark
	quarkTab.m[s] = q
	return q
}

// quarkCount returns the number of quarks interned so far.
func quarkCount() int {
	quarkTab.mu.RLock()
	defer quarkTab.mu.RUnlock()
	return len(quarkTab.m)
}

// quarkQuestion is the interned '?' wildcard component.
var quarkQuestion = StringToQuark("?")
