package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ProfStat is one aggregated profile row: call count, self time (time
// in the site itself, children excluded) and cumulative time (children
// included).
type ProfStat struct {
	Count  int64 `json:"count"`
	SelfNs int64 `json:"self_ns"`
	CumNs  int64 `json:"cum_ns"`
}

// Profiler accumulates Tcl execution time three ways:
//
//   - per command site ("<cmd>@<proc>:<line>", the PR 5 positions) —
//     self and cumulative per invocation,
//   - per proc — calls, self, cumulative,
//   - per folded call stack ("<top>;a;b") — self time at that exact
//     stack, the flamegraph input (Folded output).
//
// The interpreter holds a nil *Profiler until profileOn, so the
// disabled hot path is one pointer check; while enabled, recording
// takes a mutex (profiling is a measurement mode, not a hot path).
type Profiler struct {
	active atomic.Bool

	mu      sync.Mutex
	cmds    map[string]*ProfStat
	procs   map[string]*ProfStat
	stacks  map[string]int64 // folded stack → self ns
	totalNs int64            // sum of profiled top-level eval durations
	started time.Time
	wallNs  int64 // wall time profiled (profileOff - profileOn)
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		cmds:   make(map[string]*ProfStat),
		procs:  make(map[string]*ProfStat),
		stacks: make(map[string]int64),
	}
}

// Start marks the profiling window open.
func (p *Profiler) Start() {
	p.mu.Lock()
	p.started = time.Now()
	p.mu.Unlock()
	p.active.Store(true)
}

// Stop closes the profiling window, accumulating the wall time.
func (p *Profiler) Stop() {
	if !p.active.Swap(false) {
		return
	}
	p.mu.Lock()
	p.wallNs += time.Since(p.started).Nanoseconds()
	p.mu.Unlock()
}

func add(m map[string]*ProfStat, key string, self, cum time.Duration) {
	st := m[key]
	if st == nil {
		st = &ProfStat{}
		m[key] = st
	}
	st.Count++
	st.SelfNs += self.Nanoseconds()
	st.CumNs += cum.Nanoseconds()
}

// AddCommand records one command invocation at site
// "<cmd>@<proc>:<line>".
func (p *Profiler) AddCommand(site string, self, cum time.Duration) {
	p.mu.Lock()
	add(p.cmds, site, self, cum)
	p.mu.Unlock()
}

// AddProc records one proc call: name for the per-proc table, stack
// (the folded "<top>;a;b" path ending in this proc) for the flamegraph
// table. recursive suppresses the cumulative add when the proc is
// already on the stack, so self-recursive calls do not double-count.
func (p *Profiler) AddProc(name, stack string, self, cum time.Duration, recursive bool) {
	p.mu.Lock()
	st := p.procs[name]
	if st == nil {
		st = &ProfStat{}
		p.procs[name] = st
	}
	st.Count++
	st.SelfNs += self.Nanoseconds()
	if !recursive {
		st.CumNs += cum.Nanoseconds()
	}
	p.stacks[stack] += self.Nanoseconds()
	p.mu.Unlock()
}

// AddToplevel records one profiled top-level eval: its duration joins
// the total, and its self time (children excluded) joins the synthetic
// "<top>" frame so the folded output is rooted.
func (p *Profiler) AddToplevel(self, cum time.Duration) {
	p.mu.Lock()
	p.totalNs += cum.Nanoseconds()
	p.stacks["<top>"] += self.Nanoseconds()
	p.mu.Unlock()
}

// profDump is the profileDump JSON document shape.
type profDump struct {
	TotalNs  int64                `json:"total_ns"`
	WallNs   int64                `json:"wall_ns"`
	Procs    map[string]*ProfStat `json:"procs"`
	Commands map[string]*ProfStat `json:"commands"`
}

// WriteJSON writes the profile as a single-line JSON object
// (profileDump's default form), so `echo [profileDump]` stays one
// protocol line.
func (p *Profiler) WriteJSON(w io.Writer) error {
	p.mu.Lock()
	d := profDump{
		TotalNs:  p.totalNs,
		WallNs:   p.wallNs,
		Procs:    make(map[string]*ProfStat, len(p.procs)),
		Commands: make(map[string]*ProfStat, len(p.cmds)),
	}
	for k, v := range p.procs {
		c := *v
		d.Procs[k] = &c
	}
	for k, v := range p.cmds {
		c := *v
		d.Commands[k] = &c
	}
	p.mu.Unlock()
	return json.NewEncoder(w).Encode(d)
}

// Folded renders the folded-stack table, one "stack count" line per
// stack with the self time in microseconds — the input format of
// standard flamegraph tooling (flamegraph.pl, speedscope, inferno).
func (p *Profiler) Folded() string {
	p.mu.Lock()
	keys := make([]string, 0, len(p.stacks))
	for k := range p.stacks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		us := p.stacks[k] / 1000
		b.WriteString(k)
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(us, 10))
		b.WriteByte('\n')
	}
	p.mu.Unlock()
	return b.String()
}
