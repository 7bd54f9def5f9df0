package xt

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"wafe/internal/obs"
)

// Xrm is the resource database (XrmDatabase): specification lines like
//
//	*Font: fixed
//	Wafe*label1.foreground: blue
//
// entered from resource files or the mergeResources command, queried at
// widget-creation time with standard X precedence rules.
//
// The database is the Xlib-style quark tree: every specification
// component is interned to a Quark, and each tree level keeps separate
// tight ('.') and loose ('*') buckets for child levels and for leaf
// values. Enter is O(depth); queries walk the tree through a search
// list (XrmQGetSearchList) — the precomputed, precedence-ordered set of
// tree positions that can hold a value for a given widget path — so
// resolving one resource (XrmQGetSearchResource) costs a handful of
// small-int map probes regardless of database size.
//
// All methods are safe for concurrent use: mergeResources may run on
// the event loop while another goroutine reads. A generation counter,
// bumped by every Enter, invalidates cached search lists.
type Xrm struct {
	mu      sync.RWMutex
	root    *xrmNode
	count   int
	nextSeq int
	gen     atomic.Uint64

	// specCache interns parsed specification strings so re-entering a
	// spec (mergeResources with a fixed set of keys) skips the parser.
	specCache map[string][]xrmComponent

	// lists caches search lists keyed by a hash of the quarked widget
	// path. Entries are immutable once published and carry the
	// generation they were built at; a generation mismatch is a miss.
	lists map[uint64]*SearchList

	// metrics, when non-nil, counts search-list cache hits/misses and
	// mirrors the generation counter (xt.xrm_* metrics).
	metrics atomic.Pointer[obs.Metrics]
}

type xrmComponent struct {
	loose bool // preceded by '*' (matches zero or more levels)
	q     Quark
}

// xrmNode is one level of the quark tree. Children and leaf values are
// split into tight and loose buckets; maps are nil until first use so
// sparse databases stay small.
type xrmNode struct {
	tight     map[Quark]*xrmNode
	loose     map[Quark]*xrmNode
	tightVals map[Quark]*xrmValue
	looseVals map[Quark]*xrmValue
}

type xrmValue struct {
	value string
	seq   int // insertion order; a replacement takes the current sequence
}

// maxCachedLists bounds the per-database search-list cache; the cache
// is reset wholesale when full (paths repeat heavily in practice, so
// the steady state never approaches the bound).
const maxCachedLists = 512

// maxCachedSpecs bounds the parsed-specification intern cache.
const maxCachedSpecs = 4096

// NewXrm returns an empty database.
func NewXrm() *Xrm { return &Xrm{root: &xrmNode{}} }

// Len returns the number of entries.
func (db *Xrm) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.count
}

// setMetrics attaches (or, with nil, detaches) the registry that
// counts search-list cache hits/misses and mirrors the generation
// (App.SetMetrics).
func (db *Xrm) setMetrics(m *obs.Metrics) {
	db.metrics.Store(m)
	if m != nil {
		m.Xt.XrmGeneration.Observe(int64(db.gen.Load()))
	}
}

// EnterString parses a block of resource-file text: one "spec: value"
// per line, "!"- or "#"-prefixed comment lines ignored. A line whose
// trailing backslash run has odd length continues on the next line,
// with the backslash and the newline elided, as in real resource files.
func (db *Xrm) EnterString(text string) error {
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSuffix(lines[i], "\r")
		for oddTrailingBackslashes(line) && i+1 < len(lines) {
			i++
			line = line[:len(line)-1] + strings.TrimSuffix(lines[i], "\r")
		}
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "#") {
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			return fmt.Errorf("xt: resource line %q has no colon", line)
		}
		if err := db.Enter(strings.TrimSpace(line[:colon]), strings.TrimSpace(line[colon+1:])); err != nil {
			return err
		}
	}
	return nil
}

// oddTrailingBackslashes reports whether the line ends in an unescaped
// backslash — the resource-file continuation marker.
func oddTrailingBackslashes(line string) bool {
	n := 0
	for n < len(line) && line[len(line)-1-n] == '\\' {
		n++
	}
	return n%2 == 1
}

// Enter adds one specification → value pair, replacing an identical
// specification. A replacement takes the current insertion priority —
// re-entering a spec behaves exactly like removing it and adding it
// fresh, so it cannot lose later-wins tie-breaks to entries added in
// between.
func (db *Xrm) Enter(spec, value string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	comps, err := db.parseSpecLocked(spec)
	if err != nil {
		return err
	}
	n := db.root
	for _, c := range comps[:len(comps)-1] {
		var m map[Quark]*xrmNode
		if c.loose {
			if n.loose == nil {
				n.loose = make(map[Quark]*xrmNode)
			}
			m = n.loose
		} else {
			if n.tight == nil {
				n.tight = make(map[Quark]*xrmNode)
			}
			m = n.tight
		}
		child := m[c.q]
		if child == nil {
			child = &xrmNode{}
			m[c.q] = child
		}
		n = child
	}
	last := comps[len(comps)-1]
	var vals map[Quark]*xrmValue
	if last.loose {
		if n.looseVals == nil {
			n.looseVals = make(map[Quark]*xrmValue)
		}
		vals = n.looseVals
	} else {
		if n.tightVals == nil {
			n.tightVals = make(map[Quark]*xrmValue)
		}
		vals = n.tightVals
	}
	db.nextSeq++
	if v := vals[last.q]; v != nil {
		v.value = value
		v.seq = db.nextSeq
	} else {
		vals[last.q] = &xrmValue{value: value, seq: db.nextSeq}
		db.count++
	}
	g := db.gen.Add(1)
	if m := db.metrics.Load(); m != nil {
		m.Xt.XrmGeneration.Observe(int64(g))
	}
	return nil
}

// parseSpecLocked parses a specification through the intern cache;
// the caller holds db.mu.
func (db *Xrm) parseSpecLocked(spec string) ([]xrmComponent, error) {
	if comps, ok := db.specCache[spec]; ok {
		return comps, nil
	}
	comps, err := parseXrmSpec(spec)
	if err != nil {
		return nil, err
	}
	if db.specCache == nil {
		db.specCache = make(map[string][]xrmComponent)
	} else if len(db.specCache) >= maxCachedSpecs {
		clear(db.specCache)
	}
	db.specCache[spec] = comps
	return comps, nil
}

func parseXrmSpec(spec string) ([]xrmComponent, error) {
	var comps []xrmComponent
	loose := false
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			comps = append(comps, xrmComponent{loose: loose, q: StringToQuark(cur.String())})
			cur.Reset()
			loose = false
		}
	}
	for i := 0; i < len(spec); i++ {
		switch spec[i] {
		case '.':
			flush()
		case '*':
			flush()
			loose = true
		case ' ', '\t':
			// ignore stray whitespace
		default:
			cur.WriteByte(spec[i])
		}
	}
	flush()
	if len(comps) == 0 {
		return nil, fmt.Errorf("xt: empty resource specification %q", spec)
	}
	return comps, nil
}

// --- search lists -----------------------------------------------------------

// SearchList is the result of XrmQGetSearchList for one widget path:
// the precedence-ordered tree positions that can still hold a value
// for any resource of that widget. Lists are immutable once built and
// tagged with the database generation; SearchResource revalidates on
// every use, so holders (widgets cache their list across resource
// initialization) never observe a stale database.
type SearchList struct {
	states   []searchState
	gen      uint64
	namesQ   []Quark
	classesQ []Quark
}

// searchState is one tree position a query may find values at. A state
// reached by skipping a path level via a loose binding may only use the
// node's loose buckets.
type searchState struct {
	node      *xrmNode
	looseOnly bool
}

// SearchListFor returns the search list for a quarked widget name/class
// path, serving it from the per-database cache when the path was seen
// at the current generation (the widget-creation steady state).
func (db *Xrm) SearchListFor(namesQ, classesQ []Quark) *SearchList {
	h := hashQuarkPath(namesQ, classesQ)
	db.mu.RLock()
	g := db.gen.Load()
	if sl := db.lists[h]; sl != nil && sl.gen == g &&
		quarksEqual(sl.namesQ, namesQ) && quarksEqual(sl.classesQ, classesQ) {
		db.mu.RUnlock()
		if m := db.metrics.Load(); m != nil {
			m.Xt.XrmSearchListHits.Inc()
		}
		return sl
	}
	fresh := &SearchList{
		gen:      g,
		namesQ:   append([]Quark(nil), namesQ...),
		classesQ: append([]Quark(nil), classesQ...),
	}
	fresh.states = db.buildStatesLocked(fresh.namesQ, fresh.classesQ)
	db.mu.RUnlock()
	if m := db.metrics.Load(); m != nil {
		m.Xt.XrmSearchListMisses.Inc()
	}
	db.mu.Lock()
	// Publish only if still current — the tree may have changed while
	// the read lock was dropped.
	if db.gen.Load() == fresh.gen {
		if db.lists == nil {
			db.lists = make(map[uint64]*SearchList)
		} else if len(db.lists) >= maxCachedLists {
			clear(db.lists)
		}
		db.lists[h] = fresh
	}
	db.mu.Unlock()
	return fresh
}

// SearchResource resolves one resource name/class against a search
// list (XrmQGetSearchResource). The steady-state path — list current at
// this generation — performs no allocation.
func (db *Xrm) SearchResource(sl *SearchList, resName, resClass Quark) (string, bool) {
	db.mu.RLock()
	states := sl.states
	if sl.gen != db.gen.Load() {
		// The database changed after the list was built (mergeResources
		// racing widget creation). Recompute privately under the read
		// lock; sl itself is immutable, so concurrent holders are safe.
		states = db.buildStatesLocked(sl.namesQ, sl.classesQ)
		if m := db.metrics.Load(); m != nil {
			m.Xt.XrmSearchListMisses.Inc()
		}
	}
	v := lookupStates(states, resName, resClass)
	if v == nil {
		db.mu.RUnlock()
		return "", false
	}
	value := v.value
	db.mu.RUnlock()
	return value, true
}

// slotSource is where a slot's initial value comes from: the database
// (or a creation arg) when found, the slot's default otherwise.
type slotSource struct {
	value string
	found bool
}

// searchSlots is SearchResource for every slot of a layout under one
// read lock: dst[i] receives the value the database holds for
// slots[i], if any. dst must have len(slots) entries.
func (db *Xrm) searchSlots(sl *SearchList, slots []layoutSlot, dst []slotSource) {
	db.mu.RLock()
	states := sl.states
	if sl.gen != db.gen.Load() {
		states = db.buildStatesLocked(sl.namesQ, sl.classesQ)
		if m := db.metrics.Load(); m != nil {
			m.Xt.XrmSearchListMisses.Inc()
		}
	}
	for i := range slots {
		dst[i] = slotSource{}
		if v := lookupStates(states, slots[i].nameQ, slots[i].classQ); v != nil {
			dst[i] = slotSource{value: v.value, found: true}
		}
	}
	db.mu.RUnlock()
}

// buildStatesLocked runs the search-list DFS; the caller holds db.mu
// (read or write). States are emitted in strict precedence order: at
// each path level tight-name beats tight-class beats tight-'?' beats
// loose-name beats loose-class beats loose-'?' beats skipping the
// level, and earlier levels dominate later ones — exactly the X
// precedence rules. A (node, level, looseOnly) memo bounds the walk to
// O(nodes × depth); re-visits would only re-emit states already listed
// at higher precedence.
func (db *Xrm) buildStatesLocked(namesQ, classesQ []Quark) []searchState {
	type visit struct {
		n         *xrmNode
		level     int
		looseOnly bool
	}
	var states []searchState
	var seen map[visit]bool
	L := len(namesQ)
	var rec func(n *xrmNode, level int, looseOnly bool)
	rec = func(n *xrmNode, level int, looseOnly bool) {
		if n == nil {
			return
		}
		if seen == nil {
			seen = make(map[visit]bool)
		}
		v := visit{n, level, looseOnly}
		if seen[v] {
			return
		}
		seen[v] = true
		if level == L {
			states = append(states, searchState{node: n, looseOnly: looseOnly})
			return
		}
		nq, cq := namesQ[level], classesQ[level]
		if !looseOnly && n.tight != nil {
			rec(n.tight[nq], level+1, false)
			if cq != nq {
				rec(n.tight[cq], level+1, false)
			}
			if quarkQuestion != nq && quarkQuestion != cq {
				rec(n.tight[quarkQuestion], level+1, false)
			}
		}
		if n.loose != nil {
			rec(n.loose[nq], level+1, false)
			if cq != nq {
				rec(n.loose[cq], level+1, false)
			}
			if quarkQuestion != nq && quarkQuestion != cq {
				rec(n.loose[quarkQuestion], level+1, false)
			}
		}
		// A loose binding may skip this level; afterwards only the
		// node's loose buckets remain matchable, so prune when it has
		// none.
		if n.loose != nil || n.looseVals != nil {
			rec(n, level+1, true)
		}
	}
	rec(db.root, 0, false)
	return states
}

// lookupStates scans a search list for the best match of one resource,
// first state (highest path precedence) first; within a state the
// tight buckets beat the loose ones and name beats class beats '?'.
func lookupStates(states []searchState, resName, resClass Quark) *xrmValue {
	for _, st := range states {
		n := st.node
		if !st.looseOnly && n.tightVals != nil {
			if v := n.tightVals[resName]; v != nil {
				return v
			}
			if resClass != resName {
				if v := n.tightVals[resClass]; v != nil {
					return v
				}
			}
			if quarkQuestion != resName && quarkQuestion != resClass {
				if v := n.tightVals[quarkQuestion]; v != nil {
					return v
				}
			}
		}
		if n.looseVals != nil {
			if v := n.looseVals[resName]; v != nil {
				return v
			}
			if resClass != resName {
				if v := n.looseVals[resClass]; v != nil {
					return v
				}
			}
			if quarkQuestion != resName && quarkQuestion != resClass {
				if v := n.looseVals[quarkQuestion]; v != nil {
					return v
				}
			}
		}
	}
	return nil
}

// --- string-path query ------------------------------------------------------

// queryStackDepth is the widget-path depth served from stack buffers in
// Query; deeper paths fall back to heap slices.
const queryStackDepth = 24

// Query looks up the resource for a widget path. names and classes are
// the instance/class paths from the application down; resName/resClass
// identify the resource itself. It returns the best-matching value per
// the X precedence rules: instance over class over '?', tight over
// loose binding, earlier path levels dominating later ones.
//
// Repeated queries for the same path hit the cached search list and
// run allocation-free.
func (db *Xrm) Query(names, classes []string, resName, resClass string) (string, bool) {
	var nbuf, cbuf [queryStackDepth]Quark
	nq := internPath(nbuf[:0], names)
	cq := internPath(cbuf[:0], classes)
	sl := db.SearchListFor(nq, cq)
	return db.SearchResource(sl, StringToQuark(resName), StringToQuark(resClass))
}

func internPath(dst []Quark, path []string) []Quark {
	for _, s := range path {
		dst = append(dst, StringToQuark(s))
	}
	return dst
}

func quarksEqual(a, b []Quark) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hashQuarkPath is FNV-1a over the two quark paths with a separator.
func hashQuarkPath(nq, cq []Quark) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, q := range nq {
		h ^= uint64(uint32(q))
		h *= prime64
	}
	h ^= 0xffffffff
	h *= prime64
	for _, q := range cq {
		h ^= uint64(uint32(q))
		h *= prime64
	}
	return h
}
