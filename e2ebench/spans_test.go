package main

import "testing"

// fakeClock is a tracer clock the test advances by hand.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestSelfTimeSyntheticTree(t *testing.T) {
	c := &fakeClock{}
	tr := &tracer{now: c.now}
	at := func(ns int64, f func()) { c.t = ns; f() }
	// A line [0,100) runs a setValues [10,40) whose widget method runs
	// [15,35), then a reply [50,60). A mass-script command [120,130)
	// starts with no span open.
	at(0, func() { tr.begin(layerTcl) })
	at(10, func() { tr.begin(layerCoreSetValues) })
	at(15, func() { tr.begin(layerXawSetValues) })
	at(35, tr.end)
	at(40, tr.end)
	at(50, func() { tr.begin(layerReply) })
	at(60, tr.end)
	at(100, tr.end)
	at(120, func() { tr.begin(layerCoreSetValues) })
	at(130, tr.end)

	want := map[layer]int64{layerTcl: 60, layerCoreSetValues: 20, layerXawSetValues: 20, layerReply: 10}
	var sum int64
	for l := layer(0); l < numLayers; l++ {
		if tr.self[l] != want[l] {
			t.Errorf("%s self = %d, want %d", layerMetric[l], tr.self[l], want[l])
		}
		sum += tr.self[l]
	}
	if tr.root != 110 || sum != tr.root {
		t.Fatalf("root = %d, self sum = %d, want both 110", tr.root, sum)
	}
}

// Random nested span trees: no self time is negative and the self times
// sum to the root spans' time.
func TestSelfTimeRandomTrees(t *testing.T) {
	r := newRNG(3, 4)
	for trial := 0; trial < 200; trial++ {
		c := &fakeClock{}
		tr := &tracer{now: c.now}
		var build func(depth int)
		build = func(depth int) {
			tr.begin(layer(r.intn(int(numLayers))))
			for i := r.intn(4); depth < 5 && i > 0; i-- {
				c.t += int64(r.intn(50))
				build(depth + 1)
			}
			c.t += int64(r.intn(50))
			tr.end()
		}
		for roots := 1 + r.intn(5); roots > 0; roots-- {
			c.t += int64(r.intn(100))
			build(0)
		}
		var sum int64
		for l, s := range tr.self {
			if s < 0 {
				t.Fatalf("trial %d: %s self = %d", trial, layerMetric[l], s)
			}
			sum += s
		}
		if sum != tr.root || tr.depth() != 0 {
			t.Fatalf("trial %d: self sum %d, root %d, depth %d", trial, sum, tr.root, tr.depth())
		}
	}
}
