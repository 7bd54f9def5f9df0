// Package obs is Wafe's runtime observability layer: low-overhead
// metric primitives (atomic counters, gauges, fixed-bucket latency
// histograms, labelled counter vectors), a bounded ring of recent
// spans, and the aggregate Metrics registry the statistics/traceOn
// commands and the --metrics-dump / --debug-addr flags expose.
//
// The layer is designed to be zero-cost when disabled: every
// instrumented hot path holds a typed metrics pointer that is nil
// until observability is enabled, so the only cost in the disabled
// state is one pointer comparison per instrumented site. All
// primitives are safe for concurrent use — the event loop writes while
// the optional debug HTTP endpoint reads.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge tracks a last-seen value and its high watermark.
type Gauge struct {
	cur atomic.Int64
	max atomic.Int64
}

// Observe records v, updating the high watermark.
func (g *Gauge) Observe(v int64) {
	g.cur.Store(v)
	storeMax(&g.max, v)
}

// storeMax raises a to v unless it holds v or more already.
func storeMax(a *atomic.Int64, v int64) {
	for {
		m := a.Load()
		if v <= m || a.CompareAndSwap(m, v) {
			return
		}
	}
}

// Load returns the last observed value.
func (g *Gauge) Load() int64 { return g.cur.Load() }

// Max returns the high watermark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histBuckets is the number of histogram buckets. Bucket i counts
// observations with d < histBase<<i nanoseconds; the last bucket is
// the overflow bucket.
const histBuckets = 24

// histBase is the upper bound of bucket 0 in nanoseconds (128ns);
// doubling per bucket puts the last boundary at ~1s.
const histBase = 128

// Histogram is a fixed-bucket latency histogram with power-of-two
// nanosecond boundaries. Observations are lock-free atomic adds.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := 0
	for bound := int64(histBase); i < histBuckets-1 && ns >= bound; i++ {
		bound <<= 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	storeMax(&h.max, ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed nanoseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed duration in nanoseconds.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the mean observed duration in nanoseconds (0 when
// empty).
func (h *Histogram) Mean() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q
// <= 1) in nanoseconds: the upper boundary of the bucket holding the
// q-th observation, clamped to the observed maximum (which the
// overflow bucket reports as is).
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	bound := int64(histBase)
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if max := h.max.Load(); i == histBuckets-1 || bound > max {
				return max
			}
			return bound
		}
		bound <<= 1
	}
	return h.max.Load()
}

// add folds the observations of o into h.
func (h *Histogram) add(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	storeMax(&h.max, o.max.Load())
}

// Buckets returns a copy of the bucket counts (tests, JSON dump).
func (h *Histogram) Buckets() []int64 {
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// BucketBound returns the upper nanosecond boundary of bucket i (the
// overflow bucket has no boundary and returns -1).
func BucketBound(i int) int64 {
	if i >= histBuckets-1 {
		return -1
	}
	return histBase << i
}

// CounterVec is a set of counters keyed by a label (command name,
// draw-op name, ...). Lookups take a read lock; labels are created on
// first use.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// Inc increments the counter for the label.
func (v *CounterVec) Inc(label string) { v.Counter(label).Inc() }

// Counter returns the counter behind a label, creating it on first
// use. Hot paths that always hit the same label (a serve-mode session
// counting its own lines) hold the pointer and skip the map lookup.
func (v *CounterVec) Counter(label string) *Counter {
	v.mu.RLock()
	c := v.m[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	if v.m == nil {
		v.m = make(map[string]*Counter)
	}
	c = v.m[label]
	if c == nil {
		c = &Counter{}
		v.m[label] = c
	}
	v.mu.Unlock()
	return c
}

// Snapshot returns all label→value pairs.
func (v *CounterVec) Snapshot() map[string]int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Load()
	}
	return out
}

// each calls fn for every label and its value, in label order.
func (v *CounterVec) each(fn func(label string, n int64)) {
	snap := v.Snapshot()
	labels := make([]string, 0, len(snap))
	for k := range snap {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	for _, k := range labels {
		fn(k, snap[k])
	}
}
